"""Characteristic functions on frequency grids and decay-envelope estimation.

Sign convention, fixed once: the transform of an integrable f is
``fhat(u) = int f(x) exp(-i<u,x>) dx`` and the characteristic function of a
law with density f is ``phi(u) = fhat(-u) = int f(x) exp(+i<u,x>) dx``.
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

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .distributions import (
    GaussianMixture,
    GridDensity,
    SpaceGrid,
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

    Frequencies run over ``[-U_j, U_j)`` per axis in ascending order with
    ``u = 0`` a node.  ``is_characteristic`` marks grids representing a
    characteristic function itself (then ``|value| <= 1 + 1e-8`` everywhere
    and ``value = 1`` at ``u = 0`` within 1e-8); derived grids such as
    moment-weighted transforms carry no such constraint.
    """

    space_grid: SpaceGrid
    values: np.ndarray
    is_characteristic: bool = True
    # derivative stacks by order K, built on first use by both envelope
    # estimators (see _stack_of); derived data, so not part of the value
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.space_grid.shape:
            raise PreconditionError("value array does not match the dual grid shape")
        if self.is_characteristic:
            mags = np.abs(vals)
            if mags.max() > 1.0 + 1e-8:
                raise PreconditionError(
                    f"|phi| reaches {mags.max()!r} > 1 + 1e-8 on the grid"
                )
            origin = tuple(n // 2 for n in vals.shape)
            if abs(vals[origin] - 1.0) > 1e-8:
                raise PreconditionError("phi(0) differs from 1 beyond 1e-8")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.space_grid.d

    def freq_axes(self):
        return self.space_grid.freq_axes()

    def freq_radii(self):
        return self.space_grid.freq_radii()

    def value_at(self, u) -> complex:
        """Value at the grid node nearest to frequency u."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        idx = tuple(
            int(np.abs(ax - u[j]).argmin()) for j, ax in enumerate(self.freq_axes())
        )
        return complex(self.values[idx])


def _wrapped_freqs(grid: SpaceGrid):
    """Per-axis frequency vectors in FFT (wrapped) order."""
    return [
        2.0 * math.pi * np.fft.fftfreq(n, d=h)
        for n, h in zip(grid.shape, grid.spacings)
    ]


def _axis_phase(grid: SpaceGrid, sign: float):
    """Per-axis factors exp(sign * i * u * x0), broadcastable over the grid."""
    x0 = [lo + 0.5 * h for lo, h in zip(grid.lo, grid.spacings)]
    phases = []
    for j, uw in enumerate(_wrapped_freqs(grid)):
        shape = [1] * grid.d
        shape[j] = len(uw)
        phases.append(np.exp(sign * 1j * uw * x0[j]).reshape(shape))
    return phases


def forward_transform(grid: SpaceGrid, values) -> np.ndarray:
    """Discrete approximation of ``int g(x) exp(+i<u,x>) dx`` on the dual
    grid, ascending frequency order."""
    return _forward(grid, values, _axis_phase(grid, +1.0))


def _forward(grid: SpaceGrid, values, phases) -> np.ndarray:
    """:func:`forward_transform` with its ``_axis_phase(grid, +1)`` given."""
    out = np.fft.ifftn(np.asarray(values)) * np.prod(grid.shape) * grid.cell_volume
    for ph in phases:
        out = out * ph
    return np.fft.fftshift(out)


def inverse_transform(grid: SpaceGrid, freq_values) -> np.ndarray:
    """Exact inverse of :func:`forward_transform`; equals the Riemann sum of
    ``(2 pi)^{-d} int V(u) exp(-i<u,x>) du`` over the dual grid."""
    return _inverse(grid, freq_values, _axis_phase(grid, -1.0))


def _inverse(grid: SpaceGrid, freq_values, phases) -> np.ndarray:
    """:func:`inverse_transform` with its ``_axis_phase(grid, -1)`` given."""
    out = np.fft.ifftshift(np.asarray(freq_values, dtype=complex))
    for ph in phases:
        out = out * ph
    return np.fft.fftn(out) / (np.prod(grid.shape) * grid.cell_volume)


def char_fn_grid(f: GridDensity) -> CharGrid:
    """Characteristic-function grid of a unit-mass density grid."""
    return CharGrid(f.grid, forward_transform(f.grid, f.values))


# ---------------------------------------------------------------------------
# spectral derivatives
# ---------------------------------------------------------------------------

def multiindices(d: int, k: int):
    """All multiindices of total order k in d variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(d), k):
        alpha = [0] * d
        for j in combo:
            alpha[j] += 1
        out.append(tuple(alpha))
    return out


def _multinomial(k: int, alpha) -> int:
    num = math.factorial(k)
    for a in alpha:
        num //= math.factorial(a)
    return num


def _monomial(mesh, alpha) -> np.ndarray:
    """x^alpha on a space mesh or u^alpha on a frequency mesh."""
    out = np.ones(mesh[0].shape)
    for m, a in zip(mesh, alpha):
        if a:
            out = out * m**a
    return out


def density_derivative(f: GridDensity, alpha) -> np.ndarray:
    """partial_alpha f on the grid, by frequency-side multiplication."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.d:
        raise PreconditionError("multiindex rank does not match dimension")
    phi = forward_transform(f.grid, f.values)
    k = sum(alpha)
    mult = (-1j) ** k * _monomial(f.grid.freq_mesh(), alpha)
    return inverse_transform(f.grid, phi * mult).real


# ---------------------------------------------------------------------------
# the coordinate-power operator sum_j d^p/du_j^p
# ---------------------------------------------------------------------------

def delta_p_char(f: GridDensity, p: int) -> CharGrid:
    """Grid of ``sum_j d^p phi / du_j^p`` for even p >= 2.

    Equals ``i^p`` times the transform of the moment-weighted density
    ``sum_j x_j^p f(x)``, taken through the fast transform; discretize a
    mixture first.
    """
    if not (float(p).is_integer() and p >= 2 and int(p) % 2 == 0):
        raise PreconditionError(
            f"weight power must be an even integer >= 2, got {p!r}"
        )
    p = int(p)
    if not isinstance(f, GridDensity):
        raise PreconditionError("expected a GridDensity")
    mesh = f.grid.mesh()
    weight = sum(_monomial(mesh, alpha) for alpha in _axis_powers(f.d, p))
    vals = (1j) ** p * forward_transform(f.grid, weight * f.values)
    return CharGrid(f.grid, vals, is_characteristic=False)


def _axis_powers(d: int, p: int):
    """Multiindices (0,...,p,...,0) realizing the coordinate powers x_j^p."""
    out = []
    for j in range(d):
        alpha = [0] * d
        alpha[j] = p
        out.append(tuple(alpha))
    return out


def weighted_diff_reconstruct(a, b, p: int):
    """Reconstruct ``(f_a(x) - f_b(x)) * sum_j x_j^p`` from frequency data.

    Returns ``(grid, values)``.  Two mixtures are discretized on their
    :func:`common_grid`.  The product is recovered as the inverse transform
    of the difference of the two coordinate-power derivative grids; for
    even p the prefactors cancel and the result is real up to round-off.
    """
    if isinstance(a, GaussianMixture) and isinstance(b, GaussianMixture):
        if a.d != b.d:
            raise PreconditionError("dimension mismatch")
        grid = common_grid(a, b)
        box = np.stack([grid.lo, grid.hi], axis=1)
        a, b = discretize(a, box, grid.shape), discretize(b, box, grid.shape)
    elif not (isinstance(a, GridDensity) and isinstance(b, GridDensity)):
        raise PreconditionError("inputs must both be mixtures or both be grids")
    if a.grid != b.grid:
        raise PreconditionError("mismatched grids")
    diff = delta_p_char(a, p).values - delta_p_char(b, p).values
    vals = (-1j) ** p * inverse_transform(a.grid, diff)
    return a.grid, vals.real


# ---------------------------------------------------------------------------
# envelope tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyEnvelopeTable:
    """Constants c_{k,l} >= sup over the grid of |d^alpha g(x)| (1+|x|)^l,
    maximized over multiindices |alpha| = k, for all k <= max_k, l <= max_l.

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
        if k > self.max_k or l > self.max_l:
            raise PreconditionError(
                f"envelope table covers k <= {self.max_k}, l <= {self.max_l}"
            )
        return float(self.table[k, l])

    def combine_max(self, other: "PolyEnvelopeTable") -> "PolyEnvelopeTable":
        """Entrywise maximum: a per-distribution bound valid for a pair."""
        if self.side != other.side:
            raise PreconditionError("cannot combine tables from different sides")
        k = min(self.max_k, other.max_k)
        l = min(self.max_l, other.max_l)
        return PolyEnvelopeTable(
            self.side, k, l,
            np.maximum(self.table[: k + 1, : l + 1], other.table[: k + 1, : l + 1]),
        )

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "entries": [
                {"k": k, "l": l, "c": float(self.table[k, l])}
                for k in range(self.max_k + 1)
                for l in range(self.max_l + 1)
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "PolyEnvelopeTable":
        if isinstance(doc, str):
            doc = json.loads(doc)
        ks = [e["k"] for e in doc["entries"]]
        ls = [e["l"] for e in doc["entries"]]
        table = np.full((max(ks) + 1, max(ls) + 1), np.nan)
        for e in doc["entries"]:
            table[e["k"], e["l"]] = e["c"]
        if np.any(np.isnan(table)):
            raise PreconditionError("envelope JSON does not cover a full rectangle")
        return cls(doc["side"], max(ks), max(ls), table)


@dataclass(frozen=True)
class ExpEnvelopeTable:
    """Exponential-decay constants per derivative order k: rates r_k > 0 and
    integrals c_k >= int |g_k(u)| exp(r_k |u|) du, where g_k is the Euclidean
    norm of the order-k derivative tensor.  ``sups`` additionally records the
    grid supremum of g_k (used by the certificate engine, not serialized)."""

    rates: dict = field(default_factory=dict)
    integrals: dict = field(default_factory=dict)
    sups: dict = field(default_factory=dict)

    def __post_init__(self):
        for k, r in self.rates.items():
            if not (r > 0 and math.isfinite(self.integrals.get(k, math.nan))):
                raise PreconditionError("exponential envelopes need r > 0, c finite")

    @property
    def max_k(self) -> int:
        return max(self.rates)

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

    def to_json(self) -> dict:
        return {
            "entries": [
                {"k": k, "r": float(self.rates[k]), "c": float(self.integrals[k])}
                for k in sorted(self.rates)
            ]
        }

    @classmethod
    def from_json(cls, doc) -> "ExpEnvelopeTable":
        if isinstance(doc, str):
            doc = json.loads(doc)
        rates = {e["k"]: e["r"] for e in doc["entries"]}
        integrals = {e["k"]: e["c"] for e in doc["entries"]}
        return cls(rates, integrals, {})


# ---------------------------------------------------------------------------
# envelope estimation
# ---------------------------------------------------------------------------

def _derivative_stack(obj, K: int):
    """Per-order spectral derivative magnitudes of the object.

    Returns (side, grid, coord_radii, stacks) where stacks[k] is a list of
    (alpha, |derivative| array) over all |alpha| = k, and coord_radii is |x|
    (density side) or |u| (frequency side) at the nodes.  The arrays are
    read-only, so a :class:`CharGrid` can keep the stack for every reader.
    """
    if isinstance(obj, GridDensity):
        side = "density"
        grid = obj.grid
        phi = forward_transform(grid, obj.values)
        radii = grid.radii()
        freq_mesh, minus = grid.freq_mesh(), _axis_phase(grid, -1.0)

        def deriv(alpha):
            mult = (-1j) ** sum(alpha) * _monomial(freq_mesh, alpha)
            return np.abs(_inverse(grid, phi * mult, minus))

        _check_diff_stability(np.abs(phi), grid.freq_radii(), K)
    elif isinstance(obj, CharGrid):
        side = "frequency"
        grid = obj.space_grid
        dens = inverse_transform(grid, obj.values)
        radii = grid.freq_radii()
        mesh, plus = grid.mesh(), _axis_phase(grid, +1.0)

        # partial_alpha phi: i^{|alpha|} times the transform of x^alpha f
        def deriv(alpha):
            moment = _forward(grid, _monomial(mesh, alpha) * dens, plus)
            return np.abs((1j) ** sum(alpha) * moment)

        _check_diff_stability(np.abs(dens), grid.radii(), K)
    else:
        raise PreconditionError("expected a GridDensity or CharGrid")

    stacks = {
        k: [(alpha, deriv(alpha)) for alpha in multiindices(grid.d, k)]
        for k in range(K + 1)
    }
    for arr in [radii] + [mag for stack in stacks.values() for _, mag in stack]:
        arr.flags.writeable = False
    return side, grid, radii, stacks


def _stack_of(obj, K: int):
    """The order-K derivative stack of ``obj``; a :class:`CharGrid` builds
    each order once and keeps it, so its polynomial and exponential
    envelopes read one stack."""
    if not isinstance(obj, CharGrid):
        return _derivative_stack(obj, K)
    if K not in obj._stacks:
        obj._stacks[K] = _derivative_stack(obj, K)
    return obj._stacks[K]


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


def poly_envelope(obj, K: int, L: int) -> PolyEnvelopeTable:
    """Empirical polynomial decay table of a grid object.

    Entry (k, l) is the grid maximum of |d^alpha g(x)| (1+|x|)^l over all
    multiindices of order k, restricted to the resolved band.  Density-side
    input produces the space-domain table; characteristic input produces the
    frequency-domain table.
    """
    if K < 0 or L < 0:
        raise PreconditionError("coverage bounds must be >= 0")
    side, grid, radii, stacks = _stack_of(obj, K)
    log_weight = np.log1p(radii)
    table = np.zeros((K + 1, L + 1))
    for k in range(K + 1):
        for alpha, mag in stacks[k]:
            for l, v in enumerate(_resolved_log_maxima(mag, log_weight, L)):
                if v > LOG_FLOAT_MAX:
                    table[k, l] = math.inf
                elif v > -math.inf:
                    table[k, l] = max(table[k, l], math.exp(v))
    if not np.all(np.isfinite(table)):
        raise ResolutionError("envelope entries overflowed; lower the weight power")
    return PolyEnvelopeTable(side, K, L, table)


def _tensor_norm(stack_k):
    """Euclidean norm of the derivative tensor from per-multiindex entries."""
    k = sum(stack_k[0][0])
    total = np.zeros_like(stack_k[0][1])
    for alpha, mag in stack_k:
        total += _multinomial(k, alpha) * mag**2
    return np.sqrt(total)


def exp_envelope(obj: CharGrid, K: int) -> ExpEnvelopeTable:
    """Fit exponential decay constants (r_k, c_k) for derivative orders
    k <= K of a characteristic grid.

    The tail rate is fitted by least squares on the log magnitude over the
    outer quarter of the resolved band and then halved as a safety margin;
    c_k integrates |g_k| exp(r_k |u|) over the resolved band and adds the
    fitted-tail remainder beyond it.  A non-negative fitted slope raises
    :class:`DecayError`: the exponential-envelope hypothesis is not certified.
    """
    if not isinstance(obj, CharGrid):
        raise PreconditionError("exponential envelopes require a CharGrid")
    _, grid, radii, stacks = _stack_of(obj, K)
    dvol = grid.freq_cell_volume()
    d = grid.d
    sphere_area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    rates, integrals, sups = {}, {}, {}
    for k in range(K + 1):
        g = _tensor_norm(stacks[k])
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
            lambda t: t ** (d - 1) * math.exp(intercept + decay * t),
            u_res,
            math.inf,
        )
        rates[k] = float(r_k)
        integrals[k] = body + sphere_area * tail
        sups[k] = float(top)
    return ExpEnvelopeTable(rates, integrals, sups)
