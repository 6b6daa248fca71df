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
    all k <= max_k and l <= max_l.

    ``side`` is "density" (space-domain input) or "frequency"
    (characteristic-function input).  Entries are empirical grid maxima.
    """

    side: str
    max_k: int
    max_l: int
    table: np.ndarray  # shape (max_k + 1, max_l + 1)

    def __post_init__(self):
        if self.side not in ("density", "frequency"):
            raise PreconditionError("side must be 'density' or 'frequency'")
        t = np.asarray(self.table, dtype=float)
        if t.shape != (self.max_k + 1, self.max_l + 1):
            raise PreconditionError("table shape does not match coverage")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise PreconditionError("envelope constants must be finite and >= 0")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def get(self, k: int, l: int) -> float:
        # bool is an int, and numpy would index with it or with a float
        if not all(
            isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in (k, l)
        ) or not (0 <= k <= self.max_k and 0 <= l <= self.max_l):
            raise PreconditionError(
                f"envelope table covers integers 0 <= k <= {self.max_k}, "
                f"0 <= l <= {self.max_l}"
            )
        return float(self.table[k, l])

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "entries": [
                {"k": k, "l": l, "c": float(row[l])}
                for k, row in enumerate(self.table)
                for l in range(self.max_l + 1)
            ],
        }


@dataclass(frozen=True)
class ExpEnvelopeTable:
    """Exponential-decay constants per derivative order k: rates r_k > 0 and
    integrals c_k >= int |g_k(u)| exp(r_k |u|) du, where g_k is the order-k
    derivative.  ``sups`` additionally records the
    grid supremum of g_k (used by the certificate engine).  A pair of laws
    holds the table of common rates min(r, r') with integrals and sups
    summed: lowering the rate only decreases each integral, so the sum at
    the common rate stays a valid upper bound."""

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


# ---------------------------------------------------------------------------
# envelope estimation
# ---------------------------------------------------------------------------

def _derivative_stack(obj, K: int, orders):
    """Per-order spectral derivative magnitudes of the object, for the
    derivative orders ``orders`` under the order-K stability guard.

    Returns (side, grid, coord_radii, stacks) where stacks[k] is the
    |order-k derivative| array and coord_radii is |x| (density side) or
    |u| (frequency side) at the nodes.  The arrays are read-only, so one
    stack can serve every reader.  Orders are built one at a time, in the
    given order; the first whose magnitudes leave the float range raises
    :class:`ResolutionError`.
    """
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


def _poly_entries(stack, k: int, ls) -> list:
    """The entries b_{k,l} at each order l of ``ls`` of a derivative stack
    (of :func:`_derivative_stack`): the maximum over the resolved nodes of
    |g| (1 + r)^l, for the order-k magnitude |g| and the nodes' radii r;
    0 when g vanishes."""
    _, _, radii, mags = stack
    mag = mags[k]
    top = mag.max()
    if top == 0.0:
        return [0.0 for _ in ls]
    mask = mag >= top * RESOLVED_FLOOR
    log_mag, log_radii = np.log(mag[mask]), np.log1p(radii)[mask]
    entries = []
    for l in ls:
        # exp is monotone, so the exp of the largest log is the largest entry
        log_max = (log_mag + l * log_radii).max()
        if log_max > LOG_FLOAT_MAX:
            raise ResolutionError("envelope entries overflowed; lower the weight power")
        entries.append(math.exp(log_max))
    return entries


def poly_envelope(obj, K: int, L: int) -> PolyEnvelopeTable:
    """Empirical polynomial decay table of a grid object.

    Entry (k, l) is the grid maximum of |g^{(k)}(x)| (1+|x|)^l, restricted
    to the resolved band, for every k <= K and l <= L: the
    :func:`_poly_entries` that certificates read.  Density-side input
    produces the space-domain table; characteristic input produces the
    frequency-domain table.
    """
    if K < 0 or L < 0:
        raise PreconditionError("coverage bounds must be >= 0")
    stack = _derivative_stack(obj, K, range(K + 1))
    table = [_poly_entries(stack, k, range(L + 1)) for k in range(K + 1)]
    return PolyEnvelopeTable(stack[0], K, L, table)


def _exp_entry(stack, k: int) -> tuple:
    """Exponential decay constants (r_k, c_k, sup_k) of the order-k
    magnitudes of a frequency-side derivative stack.

    The tail rate is fitted by least squares on the log magnitude over the
    outer quarter of the resolved band and then halved as a safety margin;
    c_k integrates |g_k| exp(r_k |u|) over the resolved band and adds the
    fitted-tail remainder beyond it; sup_k is the grid maximum of |g_k|.
    Unless the resolved band ends below the top frequency and the fitted
    line falls by ln 10 or more across its window (facts round-off cannot
    flip), :class:`DecayError` says the exponential-envelope hypothesis is
    not certified.
    """
    from scipy import integrate  # not loaded on import

    _, grid, radii, stacks = stack
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
    drop = -slope * (x.max() - x.min())
    if not (u_res < radii.max() and drop >= math.log(10.0)):
        raise DecayError(
            f"order-{k} tail falls by {drop:.3g} in log, band end {u_res:.4g} of "
            f"top frequency {radii.max():.4g}; exponential-envelope hypothesis "
            "not certified"
        )
    r_k = -0.5 * slope
    dvol = grid.freq_spacing
    body = float(np.sum(g[resolved] * np.exp(r_k * radii[resolved])) * dvol)
    decay = slope + r_k  # = slope / 2 < 0
    tail, _ = integrate.quad(
        lambda t: math.exp(intercept + decay * t), u_res, math.inf
    )
    # the fitted tail holds on both half-lines
    return float(r_k), body + 2.0 * tail, float(top)


def exp_envelope(obj: CharGrid, K: int) -> ExpEnvelopeTable:
    """Exponential decay constants (r_k, c_k) and sups of a characteristic
    grid for every derivative order k <= K, each the :func:`_exp_entry`
    that certificates read."""
    if not isinstance(obj, CharGrid):
        raise PreconditionError("exponential envelopes require a CharGrid")
    if K < 0:
        raise PreconditionError("coverage bounds must be >= 0")
    stack = _derivative_stack(obj, K, range(K + 1))
    rates, integrals, sups = {}, {}, {}
    for k in range(K + 1):
        rates[k], integrals[k], sups[k] = _exp_entry(stack, k)
    return ExpEnvelopeTable(rates, integrals, sups)
