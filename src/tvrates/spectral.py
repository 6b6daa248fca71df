"""Characteristic functions on frequency grids and decay-envelope estimation.

Sign convention, fixed once: the transform of an integrable f is
``fhat(u) = int f(x) exp(-iux) dx`` and the characteristic function of a
law with density f is ``phi(u) = fhat(-u) = int f(x) exp(+iux) dx``.
All grid transforms below realize phi via the FFT with the continuous-phase
correction for the box offset, so phi(0) = 1 exactly for unit-mass grids.

Derivatives are always taken spectrally (multiplication by i*u, or by i*x,
before the transform), never by finite differences: one code path serves the
density side and the frequency side of the decay-equivalence used by the
certificate engine.

Suprema and integrals are taken over grid nodes in the *resolved band*, the
region where magnitudes exceed the ``RESOLVED_FLOOR`` relative threshold;
below it FFT round-off dominates and polynomial weights would amplify pure
noise.  All resulting constants are therefore labeled "empirical": grid
maxima are lower bounds for true suprema, guarded by refinement-stability
tests rather than by proof.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    GridDensity,
    SpaceGrid,
    _require_mixtures,
    common_grid,
    discretize,
)
from .errors import DecayError, PreconditionError, ResolutionError

__all__ = [
    "CharGrid",
    "PolyEnvelopeTable",
    "ExpEnvelopeTable",
    "char_fn_grid",
    "delta_p_char",
    "weighted_diff_reconstruct",
    "poly_envelope",
    "exp_envelope",
    "density_derivative",
]

# Relative magnitude below which grid values are treated as unresolved noise.
# FFT round-off on moment-weighted transforms reaches ~1e-12 relative at the
# resolutions used here, so anything below this floor is not trustworthy.
RESOLVED_FLOOR = 1e-11

# Largest log of a finite double: envelope entries above it overflow.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# frequency grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharGrid:
    """Complex values on the dual grid of a :class:`SpaceGrid`.

    Frequencies run over ``[-U, U)`` in ascending order with ``u = 0`` a
    node.  ``is_characteristic`` marks grids representing a
    characteristic function itself (then ``|value| <= 1 + 1e-8`` everywhere
    and ``value = 1`` at ``u = 0`` within 1e-8); derived grids such as
    moment-weighted transforms carry no such constraint.
    """

    space_grid: SpaceGrid
    values: np.ndarray
    is_characteristic: bool = True
    # derivative stacks by guard order K and derivative orders, built on
    # first use by both envelope estimators (see _stack_of); derived data,
    # so not part of the value
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.space_grid.n,):
            raise PreconditionError("value array does not match the dual grid")
        if self.is_characteristic:
            mags = np.abs(vals)
            if mags.max() > 1.0 + 1e-8:
                raise PreconditionError(
                    f"|phi| reaches {float(mags.max())!r} > 1 + 1e-8 on the grid"
                )
            if abs(vals[len(vals) // 2] - 1.0) > 1e-8:
                raise PreconditionError("phi(0) differs from 1 beyond 1e-8")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def freqs(self) -> np.ndarray:
        return self.space_grid.freqs()

    def value_at(self, u: float) -> complex:
        """Value at the grid node nearest to frequency u."""
        return complex(self.values[np.abs(self.freqs() - u).argmin()])


def forward_transform(grid: SpaceGrid, values) -> np.ndarray:
    """Discrete approximation of ``int g(x) exp(+iux) dx`` on the dual
    grid, ascending frequency order."""
    out = np.fft.ifft(np.asarray(values)) * grid.n * grid.spacing * grid.phases(+1.0)
    return np.fft.fftshift(out)


def inverse_transform(grid: SpaceGrid, freq_values) -> np.ndarray:
    """Exact inverse of :func:`forward_transform`; equals the Riemann sum of
    ``(2 pi)^{-1} int V(u) exp(-iux) du`` over the dual grid."""
    out = np.fft.ifftshift(np.asarray(freq_values, dtype=complex)) * grid.phases(-1.0)
    return np.fft.fft(out) / (grid.n * grid.spacing)


def char_fn_grid(f: GridDensity) -> CharGrid:
    """Characteristic-function grid of a unit-mass density grid."""
    return CharGrid(f.grid, forward_transform(f.grid, f.values))


# ---------------------------------------------------------------------------
# spectral derivatives
# ---------------------------------------------------------------------------

def density_derivative(f: GridDensity, k: int) -> np.ndarray:
    """The order-``k`` derivative of f on the grid, by frequency-side
    multiplication."""
    k = int(k)
    if k < 0:
        raise PreconditionError(f"derivative order must be >= 0, got {k!r}")
    phi = forward_transform(f.grid, f.values)
    mult = (-1j) ** k * f.grid.freqs() ** k
    return inverse_transform(f.grid, phi * mult).real


# ---------------------------------------------------------------------------
# the power operator d^p/du^p
# ---------------------------------------------------------------------------

def delta_p_char(f: GridDensity, p: int) -> CharGrid:
    """Grid of ``d^p phi / du^p`` for even p >= 2.

    Equals ``i^p`` times the transform of the moment-weighted density
    ``x^p f(x)``, taken through the fast transform; discretize a mixture
    first.
    """
    if not (float(p).is_integer() and p >= 2 and int(p) % 2 == 0):
        raise PreconditionError(
            f"weight power must be an even integer >= 2, got {p!r}"
        )
    p = int(p)
    if not isinstance(f, GridDensity):
        raise PreconditionError("expected a GridDensity")
    vals = (1j) ** p * forward_transform(f.grid, f.grid.nodes() ** p * f.values)
    return CharGrid(f.grid, vals, is_characteristic=False)


def weighted_diff_reconstruct(a, b, p: int):
    """Reconstruct ``(f_a(x) - f_b(x)) * x^p`` from frequency data.

    Returns ``(grid, values)``.  The two mixtures are discretized on their
    :func:`common_grid`.  The product is recovered as the inverse transform
    of the difference of the two power-derivative grids; for even p the
    prefactors cancel and the result is real up to round-off.
    """
    _require_mixtures(a, b)
    grid = common_grid(a, b)
    fa, fb = discretize(a, grid), discretize(b, grid)
    diff = delta_p_char(fa, p).values - delta_p_char(fb, p).values
    vals = (-1j) ** p * inverse_transform(grid, diff)
    return grid, vals.real


# ---------------------------------------------------------------------------
# envelope tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyEnvelopeTable:
    """Constants c_{k,l} >= sup over the grid of |g^{(k)}(x)| (1+|x|)^l for
    the derivative orders k of ``orders`` and all l <= max_l.

    ``side`` is "density" (space-domain input) or "frequency"
    (characteristic-function input).  ``orders`` lists the orders the
    table holds, ascending and at most ``max_k``, one table row each; it
    defaults to every k <= max_k.  Entries are empirical grid maxima.
    """

    side: str
    max_k: int
    max_l: int
    table: np.ndarray  # shape (len(orders), max_l + 1)
    orders: tuple = None

    def __post_init__(self):
        if self.side not in ("density", "frequency"):
            raise PreconditionError("side must be 'density' or 'frequency'")
        orders = _held_orders(self.max_k, self.orders)
        object.__setattr__(self, "orders", orders)
        t = np.asarray(self.table, dtype=float)
        if t.shape != (len(orders), self.max_l + 1):
            raise PreconditionError("table shape does not match coverage")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise PreconditionError("envelope constants must be finite and >= 0")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def get(self, k: int, l: int) -> float:
        if not (0 <= k <= self.max_k and 0 <= l <= self.max_l):
            raise PreconditionError(
                f"envelope table covers 0 <= k <= {self.max_k}, 0 <= l <= {self.max_l}"
            )
        if k not in self.orders:
            raise PreconditionError(f"polynomial envelope missing order {k}")
        return float(self.table[self.orders.index(k), l])

    def combine_max(self, other: "PolyEnvelopeTable") -> "PolyEnvelopeTable":
        """Entrywise maximum over the orders both tables hold: a
        per-distribution bound valid for a pair."""
        if self.side != other.side:
            raise PreconditionError("cannot combine tables from different sides")
        ks = [k for k in self.orders if k in other.orders]
        l = min(self.max_l, other.max_l)
        return PolyEnvelopeTable(
            self.side, min(self.max_k, other.max_k), l,
            np.maximum(
                self.table[[self.orders.index(k) for k in ks], : l + 1],
                other.table[[other.orders.index(k) for k in ks], : l + 1],
            ),
            tuple(ks),
        )

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "entries": [
                {"k": k, "l": l, "c": float(row[l])}
                for k, row in zip(self.orders, self.table)
                for l in range(self.max_l + 1)
            ],
        }


def _held_orders(K: int, orders) -> tuple:
    """``orders`` as an ascending tuple of distinct derivative orders in
    0..K, every such order when None; PreconditionError otherwise."""
    if orders is None:
        return tuple(range(K + 1))
    held = tuple(sorted(set(orders)))
    if not held or not all(
        isinstance(k, (int, np.integer)) and 0 <= k <= K for k in held
    ):
        raise PreconditionError(
            f"envelope orders must be integers in 0..{K}, got {orders!r}"
        )
    return tuple(int(k) for k in held)


@dataclass(frozen=True)
class ExpEnvelopeTable:
    """Exponential-decay constants per derivative order k: rates r_k > 0 and
    integrals c_k >= int |g_k(u)| exp(r_k |u|) du, where g_k is the order-k
    derivative.  ``sups`` additionally records the
    grid supremum of g_k (used by the certificate engine)."""

    rates: dict = field(default_factory=dict)
    integrals: dict = field(default_factory=dict)
    sups: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, r in self.rates.items():
            if not (r > 0 and math.isfinite(self.integrals.get(k, math.nan))):
                raise PreconditionError("exponential envelopes need r > 0, c finite")

    def get(self, k: int):
        if k not in self.rates:
            raise PreconditionError(f"exponential envelope missing order {k}")
        return self.rates[k], self.integrals[k]

    def combine(self, other: "ExpEnvelopeTable") -> "ExpEnvelopeTable":
        """Pair table: common rate min(r, r'), integrals and sups summed.
        Lowering the rate only decreases each integral, so the sum at the
        common rate stays a valid upper bound."""
        ks = sorted(set(self.rates) & set(other.rates))
        rates = {k: min(self.rates[k], other.rates[k]) for k in ks}
        integrals = {k: self.integrals[k] + other.integrals[k] for k in ks}
        sups = {k: self.sups.get(k, 0.0) + other.sups.get(k, 0.0) for k in ks}
        return ExpEnvelopeTable(rates, integrals, sups)


# ---------------------------------------------------------------------------
# envelope estimation
# ---------------------------------------------------------------------------

def _derivative_stack(obj, K: int, orders=None):
    """Per-order spectral derivative magnitudes of the object, for the
    derivative orders ``orders`` (every k <= K when None) under the order-K
    stability guard.

    Returns (side, grid, coord_radii, stacks) where stacks[k] is the
    |order-k derivative| array and coord_radii is |x| (density side) or
    |u| (frequency side) at the nodes.  The arrays are read-only, so a
    :class:`CharGrid` can keep the stack for every reader.  Orders are
    built one at a time; the first whose magnitudes leave the float range
    raises :class:`ResolutionError`.
    """
    orders = _held_orders(K, orders)
    if isinstance(obj, GridDensity):
        side = "density"
        grid = obj.grid
        phi = forward_transform(grid, obj.values)
        radii, freqs = grid.radii(), grid.freqs()

        def deriv(k):
            return np.abs(inverse_transform(grid, phi * ((-1j) ** k * freqs**k)))

        weight_mag, dual_radii = np.abs(phi), grid.freq_radii()
    elif isinstance(obj, CharGrid):
        side = "frequency"
        grid = obj.space_grid
        dens = inverse_transform(grid, obj.values)
        radii, nodes = grid.freq_radii(), grid.nodes()

        # phi^{(k)}: i^k times the transform of x^k f
        def deriv(k):
            return np.abs((1j) ** k * forward_transform(grid, nodes**k * dens))

        weight_mag, dual_radii = np.abs(dens), grid.radii()
    else:
        raise PreconditionError("expected a GridDensity or CharGrid")

    stacks = {}
    # overflowed orders are caught below, so numpy need not warn about them;
    # the stability check passes when both of its maxima overflow
    with np.errstate(over="ignore", invalid="ignore"):
        _check_diff_stability(weight_mag, dual_radii, K)
        for k in orders:
            mag = deriv(k)
            if not np.isfinite(mag).all():
                raise ResolutionError(
                    f"order-{k} derivative magnitudes overflowed; "
                    "lower the derivative order"
                )
            mag.flags.writeable = False
            stacks[k] = mag
    return side, grid, radii, stacks


def _stack_of(obj, K: int, orders: tuple):
    """The derivative stack of ``obj`` at ``orders`` under the order-K
    guard; a :class:`CharGrid` builds each such stack once and keeps it, so
    its polynomial and exponential envelopes read one stack."""
    if not isinstance(obj, CharGrid):
        return _derivative_stack(obj, K, orders)
    if (K, orders) not in obj._stacks:
        obj._stacks[K, orders] = _derivative_stack(obj, K, orders)
    return obj._stacks[K, orders]


def _check_diff_stability(weight_mag, dual_radii, K: int):
    """Nyquist-style guard: order-K spectral differentiation is unstable when
    the transform still carries resolved content at the band edge."""
    if K == 0:
        return
    resolved = weight_mag >= weight_mag.max() * RESOLVED_FLOOR
    edge = resolved & (dual_radii >= 0.9 * dual_radii.max())
    if not edge.any():
        return
    amp = weight_mag * (1.0 + dual_radii) ** K
    ratio = amp[edge].max() / amp[resolved].max()
    if ratio > 1e-8:
        raise ResolutionError(
            f"band-edge content ratio {ratio:.3e} too large for order {K} "
            "spectral differentiation; refine the grid"
        )


def _resolved_log_maxima(mag, log_weight, L: int) -> np.ndarray:
    """Entry l (0 <= l <= L): max over resolved nodes of
    log(mag) + l * log(1 + radius); all -inf when mag vanishes."""
    top = mag.max()
    if top == 0.0:
        return np.full(L + 1, -math.inf)
    mask = mag >= top * RESOLVED_FLOOR
    logs, lw = np.log(mag[mask]), log_weight[mask]
    # a block of l values at a time keeps the temporaries near 2**20 entries
    step = max(1, 2**20 // logs.size)
    return np.concatenate([
        (logs + np.arange(l0, min(l0 + step, L + 1))[:, None] * lw).max(axis=1)
        for l0 in range(0, L + 1, step)
    ])


def poly_envelope(obj, K: int, L: int, *, orders=None) -> PolyEnvelopeTable:
    """Empirical polynomial decay table of a grid object.

    Entry (k, l) is the grid maximum of |g^{(k)}(x)| (1+|x|)^l, restricted
    to the resolved band, for every l <= L and every derivative order k of
    ``orders`` (each k <= K unless given; the order-K stability guard
    applies either way).  Density-side
    input produces the space-domain table; characteristic input produces the
    frequency-domain table.
    """
    if K < 0 or L < 0:
        raise PreconditionError("coverage bounds must be >= 0")
    orders = _held_orders(K, orders)
    side, grid, radii, stacks = _stack_of(obj, K, orders)
    log_weight = np.log1p(radii)
    table = np.zeros((len(orders), L + 1))
    for row, k in zip(table, orders):
        # exp is monotone, so the exp of the largest log is the largest entry
        logs = _resolved_log_maxima(stacks[k], log_weight, L)
        if logs.max() > LOG_FLOAT_MAX:
            raise ResolutionError("envelope entries overflowed; lower the weight power")
        row[:] = [math.exp(v) for v in logs]
    return PolyEnvelopeTable(side, K, L, table, orders)


def exp_envelope(obj: CharGrid, K: int, *, orders=None) -> ExpEnvelopeTable:
    """Fit exponential decay constants (r_k, c_k) for the derivative orders
    k of ``orders`` (each k <= K unless given) of a characteristic grid.

    The tail rate is fitted by least squares on the log magnitude over the
    outer quarter of the resolved band and then halved as a safety margin;
    c_k integrates |g_k| exp(r_k |u|) over the resolved band and adds the
    fitted-tail remainder beyond it.  A non-negative fitted slope raises
    :class:`DecayError`: the exponential-envelope hypothesis is not certified.
    """
    from scipy import integrate  # not loaded on import

    if not isinstance(obj, CharGrid):
        raise PreconditionError("exponential envelopes require a CharGrid")
    orders = _held_orders(K, orders)
    _, grid, radii, stacks = _stack_of(obj, K, orders)
    dvol = grid.freq_spacing
    rates, integrals, sups = {}, {}, {}
    for k in orders:
        g = stacks[k]
        top = g.max()
        resolved = g >= top * RESOLVED_FLOOR
        u_res = radii[resolved].max()
        fit_mask = resolved & (radii >= 0.75 * u_res) & (radii > 0)
        if fit_mask.sum() < 8:
            raise ResolutionError("too few resolved nodes for a tail fit")
        x = radii[fit_mask]
        y = np.log(g[fit_mask])
        slope, intercept = np.polyfit(x, y, 1)
        if slope >= 0:
            raise DecayError(
                f"order-{k} tail slope {slope:.3g} is not negative; "
                "exponential-envelope hypothesis not certified"
            )
        r_k = -0.5 * slope
        body = float(np.sum(g[resolved] * np.exp(r_k * radii[resolved])) * dvol)
        decay = slope + r_k  # = slope / 2 < 0
        tail, _ = integrate.quad(
            lambda t: math.exp(intercept + decay * t), u_res, math.inf
        )
        rates[k] = float(r_k)
        # the fitted tail holds on both half-lines
        integrals[k] = body + 2.0 * tail
        sups[k] = float(top)
    return ExpEnvelopeTable(rates, integrals, sups)
