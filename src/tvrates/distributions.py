"""Gaussian mixture laws, uniform-grid densities and weighted atom sets.

The analytic family is restricted to Gaussian mixtures: they have closed-form
densities, characteristic functions and moments, and their densities together
with all derivatives decay faster than any polynomial, which is exactly what
the decay-envelope machinery in :mod:`tvrates.spectral` needs.  Heavy-tailed
or singular laws enter the toolkit only after convolution smoothing
(:meth:`GaussianMixture.smooth`).

All types are immutable after construction; operations never mutate inputs.
A :class:`SpaceGrid` keeps the read-only arrays and grids it derives from its
value, computed on first use.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import MassDefectError, PreconditionError

__all__ = [
    "GaussianMixture",
    "SpaceGrid",
    "GridDensity",
    "AtomSet",
    "gaussian",
    "sigma_box",
    "common_grid",
    "discretize",
    "mixture_quantiles",
]

# Mass allowed outside a discretization box before it is rejected.
MASS_DEFECT_LIMIT = 1e-6

# Default grid resolution (a power of two).
DEFAULT_RESOLUTION = 4096

# Default half-width of sigma boxes, in per-component standard deviations.
DEFAULT_BOX_SIGMAS = 10.0


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceGrid:
    """Uniform grid of cell midpoints on an interval.

    The interval ``[lo, hi]`` is split into ``n`` equal cells of width
    ``h``; node ``k`` sits at the midpoint ``lo + (k + 1/2) h``.  The dual
    frequency grid (see :meth:`freqs`) has nodes ``-U + m * du`` with
    ``U = pi / h`` and ``du = 2 pi / (n h)``, so ``u = 0`` is always a node.

    A grid is a value (``lo``, ``hi``, ``n``), but it keeps what it derives
    from them: its nodes, frequencies and radii, its FFT phase vectors and
    its refined grids are computed on first use and then returned as the
    same read-only arrays and grids, so every density, transform and
    envelope on one grid shares them.  The kept data goes away with the
    grid.  Concurrent first uses recompute the same deterministic value.
    """

    lo: float
    hi: float
    n: int
    # derived arrays and grids, built on first use by _keep; derived data,
    # so not part of the value
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the negated test also rejects nan and a length past the float range
        if not 0 < self.hi - self.lo < math.inf:
            raise PreconditionError("the grid interval must have finite positive length")
        if not _is_pow2(int(self.n)):
            raise PreconditionError("grid resolution must be a power of two")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "n", int(self.n))

    def _keep(self, key, compute):
        """``compute()`` on the first call for ``key``, then the kept result,
        made read-only if it is an array."""
        if key not in self._derived:
            value = compute()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def freq_spacing(self) -> float:
        return 2.0 * math.pi / (self.n * self.spacing)

    def nodes(self) -> np.ndarray:
        return self._keep(
            "nodes", lambda: self.lo + (np.arange(self.n) + 0.5) * self.spacing
        )

    def radii(self) -> np.ndarray:
        """``|x|`` at every node."""
        return self._keep("radii", lambda: np.abs(self.nodes()))

    def freqs(self) -> np.ndarray:
        return self._keep(
            "freqs", lambda: (np.arange(self.n) - self.n // 2) * self.freq_spacing
        )

    def freq_radii(self) -> np.ndarray:
        return self._keep("freq_radii", lambda: np.abs(self.freqs()))

    def phases(self, sign: float) -> np.ndarray:
        """Factors ``exp(sign * i * u * x0)`` over the frequencies in FFT
        (wrapped) order: the box offset correction of the transforms in
        :mod:`tvrates.spectral`."""
        h = self.spacing

        def compute():
            uw = 2.0 * math.pi * np.fft.fftfreq(self.n, d=h)
            return np.exp(sign * 1j * uw * (self.lo + 0.5 * h))

        return self._keep(("phases", sign), compute)

    def refined(self, factor: int = 2) -> "SpaceGrid":
        """Same interval with ``factor`` times as many nodes; the grid itself
        for a factor of 1."""
        if factor == 1:
            return self
        return self._keep(
            ("refined", factor), lambda: SpaceGrid(self.lo, self.hi, self.n * factor)
        )


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

def _as_mixture_arrays(weights, means, covs):
    """Weights, means and variances as (K,) arrays; a mean may come as
    ``[m]`` and a variance as ``[v]`` or ``[[v]]``."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    m = np.asarray(means, dtype=float)
    v = np.asarray(covs, dtype=float)
    if m.ndim == 2 and m.shape[1:] == (1,):
        m = m[:, 0]
    if v.ndim > 1 and v.shape[1:] in ((1,), (1, 1)):
        v = v.reshape(len(v))
    if m.ndim != 1 or v.ndim != 1:
        raise PreconditionError(
            "mixtures are one-dimensional: give each component a scalar mean "
            "and variance"
        )
    return w, m, v


class GaussianMixture:
    """Finite Gaussian mixture on the real line with exact densities and
    moments.

    Parameters
    ----------
    weights : (K,) array-like, positive, summing to 1 within 1e-12
    means : (K,) array-like (or (K, 1))
    covs : (K,) array-like of variances > 0 (or (K, 1) or (K, 1, 1))

    ``means`` and ``covs`` read back in the (K, 1) and (K, 1, 1) shapes of
    the JSON document.
    """

    def __init__(self, weights, means, covs):
        w, m, v = _as_mixture_arrays(weights, means, covs)
        if w.ndim != 1 or len(w) == 0:
            raise PreconditionError("weights must be a non-empty vector")
        # nan fails both comparisons, so it is rejected with the rest
        if not np.all((w > 0) & (w <= 1)):
            raise PreconditionError("weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"weights sum to {float(w.sum())!r}, not 1")
        if len(m) != len(w) or len(v) != len(w):
            raise PreconditionError("component count mismatch")
        if not np.all(np.isfinite(m)) or not np.all(np.isfinite(v)):
            raise PreconditionError("parameters must be finite")
        if not np.all(v > 0):
            raise PreconditionError("variances must be > 0")

        self._w, self._m, self._v = w, m, v
        self._s = np.sqrt(v)
        self._log_norm = -0.5 * math.log(2.0 * math.pi) - np.log(self._s)
        for a in (w, m, v, self._s, self._log_norm):
            a.flags.writeable = False

    # -- basic accessors ----------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self._w)

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def means(self) -> np.ndarray:
        return self._m[:, None]

    @property
    def covs(self) -> np.ndarray:
        return self._v[:, None, None]

    def _sorted_components(self) -> np.ndarray:
        """The (mean, variance, weight) rows in lexicographic order."""
        rows = np.stack([self._m, self._v, self._w], axis=1)
        return rows[np.lexsort((self._w, self._v, self._m))]

    def __eq__(self, other):
        """Equal component lists in any order (duplicates are not merged)."""
        return (
            isinstance(other, GaussianMixture)
            and self._w.shape == other._w.shape
            and np.array_equal(self._sorted_components(), other._sorted_components())
        )

    def __repr__(self):
        return f"GaussianMixture(K={len(self._w)})"

    # -- density / cf / cdf ---------------------------------------------------

    def _columns(self, x: np.ndarray):
        """Weights, means, standard deviations and log normalizers as
        (K, 1, ..., 1) columns against the points ``x``: the density and
        the CDF hold one row of terms per component, so every elementwise
        operation runs along the points (see :func:`_sum_components`)."""
        shape = (len(self._w),) + (1,) * x.ndim
        return (a.reshape(shape) for a in (self._w, self._m, self._s, self._log_norm))

    def pdf(self, x) -> np.ndarray:
        """Mixture density at the points ``x`` (a scalar or any array)."""
        x = np.asarray(x, dtype=float)
        w, m, s, log_norm = self._columns(x)
        with np.errstate(over="ignore"):  # z * z = inf gives exp(-inf) = 0 exactly
            z = (x - m) * (1.0 / s)
            out = _sum_components(w * np.exp(-0.5 * (z * z) + log_norm))
        return float(out) if x.ndim == 0 else out

    def char_fn(self, u) -> np.ndarray:
        """Characteristic function E exp(i u X) at the frequencies ``u`` (a
        scalar or any array), complex valued.  Exact:
        sum_k w_k exp(i u m_k - s_k^2 u^2 / 2)."""
        u = np.asarray(u, dtype=float)[..., None]
        out = np.sum(self._w * np.exp(1j * u * self._m - 0.5 * self._v * u * u), axis=-1)
        return complex(out) if out.ndim == 0 else out

    def cdf(self, x) -> np.ndarray:
        """Mixture CDF."""
        x = np.asarray(x, dtype=float)
        w, m, s, _ = self._columns(x)
        return _sum_components(w * special.ndtr((x - m) / s))

    def quantile(self, u):
        """Inverse CDF by bracketed bisection; |F(result) - u| <= 1e-12.

        ``u`` is a level or an array of levels, solved as one item of
        :func:`mixture_quantiles`.  A level outside (0, 1), nan included,
        raises PreconditionError.

        Bisection is deliberately preferred over faster root finders:
        the mixture CDF can be extremely flat between well-separated
        components and bisection is immune to that.
        """
        return mixture_quantiles([(self, u)])[0]

    # -- moments --------------------------------------------------------------

    def abs_moment(self, p: float) -> float:
        """E |X|^p for real p >= 0.

        Closed form: for even integer p from the cumulants of X^2, for any
        other p from the Gaussian absolute moments (the confluent
        hypergeometric function).  Relative error <= 1e-8.
        """
        if not 0 <= p < math.inf:
            raise PreconditionError(f"moment order must be finite and >= 0, got {p!r}")
        if p == 0:
            return 1.0
        if float(p).is_integer() and int(p) % 2 == 0:
            p = int(p)
            value = _even_moments([self], p)[0]
            if value is None:
                raise PreconditionError(f"{_moment_name(p)} is not a finite float")
            return value

        def terms():
            return (
                _gauss_abs_moment_1d(m, math.sqrt(v), p)
                for m, v in zip(self._m, self._v)
            )
        return self._finite_mean(terms, _moment_name(p))

    def exp_abs_moment(self, r: float) -> float:
        """E exp(r |X|) for finite r >= 0, in closed form."""
        if not 0 <= r < math.inf:
            raise PreconditionError(f"rate must be finite and >= 0, got {r!r}")
        if r == 0:
            return 1.0

        def terms():
            for m, v in zip(self._m, self._v):
                s = math.sqrt(v)
                # E e^{r|X|} = e^{rm + r^2 s^2/2} Phi(m/s + rs) + e^{-rm + r^2 s^2/2} Phi(-m/s + rs)
                half = 0.5 * r * r * v
                yield (
                    math.exp(r * m + half) * special.ndtr(m / s + r * s)
                    + math.exp(-r * m + half) * special.ndtr(-m / s + r * s)
                )

        return self._finite_mean(terms, f"exponential moment E exp({r}|X|)")

    def _finite_mean(self, terms, what: str) -> float:
        """The weighted sum of the per-component terms ``terms()`` returns,
        or PreconditionError naming ``what`` once it leaves the float range:
        numpy overflow warnings are suppressed, and an OverflowError (from a
        factorial, a power or ``math.exp``) counts as an infinite term."""
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for w, term in zip(self._w, terms()):
                    total += w * term
            except OverflowError:
                total = math.inf
        if not math.isfinite(total):
            raise PreconditionError(f"{what} is not a finite float")
        return total

    # -- transformations -------------------------------------------------------

    def smooth(self, sigma: float) -> "GaussianMixture":
        """Law of X + theta with theta ~ N(0, sigma^2) independent of X."""
        if sigma <= 0:
            raise PreconditionError("smoothing width must be > 0")
        return GaussianMixture(self._w, self._m, self._v + sigma * sigma)

    def translate(self, shift: float) -> "GaussianMixture":
        return GaussianMixture(self._w, self._m + float(shift), self._v)

    def scale(self, factor: float) -> "GaussianMixture":
        """Law of factor * X."""
        if factor <= 0:
            raise PreconditionError("scale factor must be > 0")
        return GaussianMixture(self._w, self._m * factor, self._v * factor**2)

    def sample(self, n: int, seed) -> "AtomSet":
        """n i.i.d. draws with equal masses 1/n; deterministic given seed."""
        if n < 1:
            raise PreconditionError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self._w), size=n, p=self._w)
        pts = self._m[idx] + self._s[idx] * rng.standard_normal(n)
        return AtomSet(pts, np.full(n, 1.0 / n))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "d": 1,
            "components": [
                {"w": float(w), "mean": [float(m)], "cov": [[float(v)]]}
                for w, m, v in zip(self._w, self._m, self._v)
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "GaussianMixture":
        """The mixture of a :meth:`to_json` document; a missing or malformed
        field raises PreconditionError naming it."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        d = _json_numbers(doc, "d")
        if d.ndim != 0 or d != 1:
            raise PreconditionError(
                f"mixture field d must be 1 (mixtures are one-dimensional), "
                f"got {doc['d']!r}"
            )
        comps = doc.get("components")
        if not isinstance(comps, list) or not comps:
            raise PreconditionError(
                f"mixture field components must be a non-empty list, got {comps!r}"
            )
        fields = {"w": [], "mean": [], "cov": []}
        for i, comp in enumerate(comps):
            where = f"components[{i}]."
            for key, out in fields.items():
                value = _json_numbers(comp, key, where)
                # a mean or variance may be a bare number, [m] or [[v]]
                if value.size != 1:
                    raise PreconditionError(
                        f"mixture field {where}{key} must hold 1 number for d = 1"
                    )
                out.append(float(value.reshape(())))
        return cls(fields["w"], fields["mean"], fields["cov"])


def _sum_components(terms) -> np.ndarray:
    """The sum of the component-major ``terms`` over its first axis, one
    row added to the next from the left.  For up to 7 components that is
    the order of ``np.sum`` over a last (component) axis, bit for bit, down
    to the sign of a zero sum, without the inner-loop call numpy makes for
    every point of such a short axis; from 8 components on, numpy sums
    pairwise and the two can differ at round-off."""
    out = terms[0] + 0.0
    for term in terms[1:]:
        out += term
    return out


def _require_mixtures(*objs):
    """PreconditionError unless every object is a :class:`GaussianMixture`."""
    for obj in objs:
        if not isinstance(obj, GaussianMixture):
            raise PreconditionError(
                f"expected Gaussian mixtures, got {type(obj).__name__}"
            )


def _json_numbers(doc, key: str, where: str = "") -> np.ndarray:
    """``doc[key]`` of a mixture document, a number or nested lists of
    numbers, as a float array; PreconditionError names a missing or
    non-numeric field."""
    if not isinstance(doc, dict) or key not in doc:
        raise PreconditionError(f"mixture field {where}{key} is missing")
    value = doc[key]

    def numeric(v):
        if isinstance(v, list):
            return all(numeric(x) for x in v)
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    try:
        if numeric(value):
            return np.asarray(value, dtype=float)
    except ValueError:  # ragged nested lists
        pass
    raise PreconditionError(
        f"mixture field {where}{key} must be a number or lists of numbers, "
        f"got {value!r}"
    )


def gaussian(mean, var) -> GaussianMixture:
    """Single-component mixture N(mean, var); ``mean`` may also be given as
    ``[m]`` and ``var`` as ``[v]`` or ``[[v]]``."""
    return GaussianMixture([1.0], np.reshape(mean, (1, -1)), np.reshape(var, (1, -1)))


def mixture_quantiles(items) -> list:
    """Quantiles of one-dimensional mixtures: ``items`` is a sequence of
    ``(law, u)`` with ``u`` a level or an array of levels in (0, 1), and
    item ``i`` of the result is the law's quantiles at ``u`` (a float for
    a scalar level, else an array of ``u``'s shape).

    All items are solved in one bisection (:func:`_bisect`) in which every
    item keeps its own bracket, tolerance and stopping test.  The
    bisection holds one row per component over all levels and adds the
    rows left to right, as :meth:`GaussianMixture.cdf` does; a law with
    fewer components than the batch's largest count is padded with rows
    of weight 0 after its own, each adding an exact +0.0.  So an item's
    result does not depend on the other items: it equals
    ``law.quantile(u)`` bit for bit.
    A level outside (0, 1), nan included, raises PreconditionError.
    """
    items = [(law, np.asarray(u, dtype=float)) for law, u in items]
    for law, v in items:
        # nan fails both comparisons, so it is rejected with the rest
        if not np.all((v > 0.0) & (v < 1.0)):
            raise PreconditionError("quantile level must lie in (0, 1)")
    return _bisect(items) if items else []


def _bisect(items) -> list:
    """The bisection of :func:`mixture_quantiles`, for one or more items."""
    distinct, los, his, tols = [], [], [], []
    # each law's (mean, sd, weight) rows, padded with rows (0, 1, 0)
    rows = np.zeros((3, max(law.n_components for law, _ in items), len(items)))
    rows[1] = 1.0
    for i, (law, v) in enumerate(items):
        # weights sum to 1 only within 1e-12: levels are fractions of their
        # sum, and the upper bracket grows only towards a level below the CDF's
        # top, which past 7 components (numpy sums pairwise) can lie below it
        total = float(law.weights.sum())
        means, s = law._m, law._s
        # equal levels follow one trajectory, so each is bisected once
        levels, inverse = np.unique(v.ravel() * total, return_inverse=True)
        lo, hi = float(np.min(means - 10.0 * s)), float(np.max(means + 10.0 * s))
        # a bracket of zero width (mean +- 10 sd rounds to one double) never
        # expands; the negated test also rejects an infinite one
        if not 0 < hi - lo < math.inf:
            raise PreconditionError(
                f"quantile bracket [{lo!r}, {hi!r}] of mean +- 10 sd is not a "
                "finite interval of positive width in floating point"
            )
        # expand the bracket until it surrounds every level of the item
        while levels.size and law.cdf(lo) >= levels[0]:
            lo -= (hi - lo)
        while levels.size and law.cdf(hi) <= levels[-1] < law.cdf(math.inf):
            hi += (hi - lo)
        distinct.append((levels, inverse))
        los.append(lo)
        his.append(hi)
        tols.append(1e-14 * max(1.0, abs(lo), abs(hi)))
        rows[:, :law.n_components, i] = means, s, law.weights
    sizes = np.array([levels.size for levels, _ in distinct])
    edges = np.concatenate([[0], np.cumsum(sizes)])
    levels = np.concatenate([lv for lv, _ in distinct])
    # each level's column carries its law's parameters, component-major
    means, s, weights = np.repeat(rows, sizes, axis=2)
    a, b = np.repeat(los, sizes), np.repeat(his, sizes)
    # the loop evaluates law.cdf(mid) inline, into buffers made once
    mid, width, cdf = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    z = np.empty(means.shape)
    below, above = np.empty(a.shape, bool), np.empty(a.shape, bool)
    # an item's values are taken once its own widest bracket is narrow
    results = [None] * len(items)
    filled = np.flatnonzero(sizes)
    starts, item_tols = edges[filled], np.array(tols)[filled]
    open_items = np.ones(filled.size, bool)
    for _ in range(200 if filled.size else 0):
        np.multiply(np.add(a, b, out=mid), 0.5, out=mid)
        np.divide(np.subtract(mid, means, out=z), s, out=z)
        np.multiply(weights, special.ndtr(z, out=z), out=z)
        # the components' terms added left to right, as law.cdf adds them
        np.copyto(cdf, z[0])
        for term in z[1:]:
            cdf += term
        np.less(cdf, levels, out=below)
        np.copyto(a, mid, where=below)
        np.copyto(b, mid, where=np.logical_not(below, out=above))
        np.subtract(b, a, out=width)
        done = open_items & (np.maximum.reduceat(width, starts) < item_tols)
        for i in filled[done]:
            sp = slice(edges[i], edges[i + 1])
            results[i] = 0.5 * (a[sp] + b[sp])
        open_items &= ~done
        if not open_items.any():
            break
    out = []
    for i, ((_, v), (_, inverse), res) in enumerate(zip(items, distinct, results)):
        sp = slice(edges[i], edges[i + 1])
        x = (0.5 * (a[sp] + b[sp]) if res is None else res)[inverse]
        out.append(float(x[0]) if v.ndim == 0 else x.reshape(v.shape))
    return out


def _gauss_abs_moment_1d(m: float, s: float, p: float) -> float:
    """E|X|^p for X ~ N(m, s^2): s^p 2^{p/2} Gamma((p+1)/2)/sqrt(pi) *
    1F1(-p/2, 1/2, -m^2/(2 s^2))."""
    z = -(m * m) / (2.0 * s * s)
    return (
        s**p
        * 2.0 ** (p / 2.0)
        * special.gamma((p + 1.0) / 2.0)
        / math.sqrt(math.pi)
        * float(special.hyp1f1(-p / 2.0, 0.5, z))
    )


def _moment_name(p) -> str:
    """How a PreconditionError names the moment E|X|^p."""
    return f"moment of order {p} (E|X|^{p})"


def _norm_sq_moment(m, v, k: int) -> np.ndarray:
    """E X^{2k} for X ~ N(m, v), elementwise over the means ``m`` and
    variances ``v`` (two scalars or two arrays of one shape), via the
    cumulants of X^2: kappa_j = 2^{j-1} (j-1)! [v^j + j m^2 v^{j-1}].

    The powers v^j are successive products and each quadratic term is
    ``(m v^{j-1}) m``; each m_n is a left-to-right sum.  Row j of the
    work arrays holds order j for every element, so each element gets the
    bits of its own scalar recursion.  A factorial or binomial past the
    float range raises OverflowError."""
    m, v = np.asarray(m, dtype=float), np.asarray(v, dtype=float)
    shape = m.shape
    if k == 0:
        return np.ones(shape)
    m, v = m.reshape(1, -1), v.reshape(1, -1)
    powers = np.empty((k + 1, v.size))
    powers[0] = 1.0
    np.multiply.accumulate(np.broadcast_to(v, (k, v.size)), axis=0, out=powers[1:])
    quad = m * powers[:-1] * m
    kappa = np.empty_like(powers)
    kappa[1:] = _cumulant_scales(k)[:, None] * (
        powers[1:] + np.arange(1, k + 1)[:, None] * quad
    )
    out = np.empty_like(powers)
    out[0] = 1.0
    for n in range(1, k + 1):
        # m_n = sum_i C(n-1, i) kappa_{n-i} m_i, summed left to right
        terms = _binomial_row(n - 1)[:, None] * kappa[n:0:-1] * out[:n]
        out[n] = np.add.accumulate(terms, axis=0)[-1]
    return out[k].reshape(shape)


def _even_moments(laws, p: int) -> list:
    """E|X|^p of each mixture of the non-empty list ``laws`` for an even
    integer order p >= 0, from one moment recursion over the laws'
    components laid end to end; :meth:`GaussianMixture.abs_moment` is the
    batch of one.  Entry i is the moment of ``laws[i]`` alone, bit for bit,
    or None where that moment is not a finite float (``abs_moment`` raises
    for it)."""
    if p == 0:
        return [1.0] * len(laws)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _norm_sq_moment(
                np.concatenate([law._m for law in laws]),
                np.concatenate([law._v for law in laws]),
                p // 2,
            )
    except OverflowError:
        return [None] * len(laws)
    out, end = [], 0
    for law in laws:
        start, end = end, end + law.n_components
        try:
            out.append(law._finite_mean(lambda: values[start:end], _moment_name(p)))
        except PreconditionError:
            out.append(None)
    return out


@functools.cache
def _cumulant_scales(k: int) -> np.ndarray:
    """Read-only row 2^{j-1} (j-1)!, j = 1..k, each rounded to a float; a
    factorial past the float range raises OverflowError."""
    row = np.array([2.0 ** (j - 1) * math.factorial(j - 1) for j in range(1, k + 1)])
    row.flags.writeable = False
    return row


@functools.cache
def _binomial_row(n: int) -> np.ndarray:
    """Read-only row C(n, i), i = 0..n, each binomial rounded to a float."""
    row = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    row.flags.writeable = False
    return row


# ---------------------------------------------------------------------------
# boxes and discretization
# ---------------------------------------------------------------------------

def sigma_box(dist: GaussianMixture, k_sigma: float = DEFAULT_BOX_SIGMAS) -> tuple:
    """The interval ``(min_c(m - k s), max_c(m + k s))``."""
    return (
        float(np.min(dist._m - k_sigma * dist._s)),
        float(np.max(dist._m + k_sigma * dist._s)),
    )


def tail_mass_bound(dist: GaussianMixture, box) -> float:
    """Union bound on the mixture mass outside the interval ``box = (lo,
    hi)`` from the component Gaussian tails."""
    lo, hi = box
    lo_tail = special.ndtr((lo - dist._m) / dist._s)
    hi_tail = special.ndtr(-((hi - dist._m) / dist._s))
    return float(np.sum(dist.weights * np.minimum(lo_tail + hi_tail, 1.0)))


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density values on a :class:`SpaceGrid`, normalized so the
    Riemann sum equals one.  ``mass_defect`` records the (tail-bound) mass
    outside the box before normalization."""

    grid: SpaceGrid
    values: np.ndarray
    mass_defect: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise PreconditionError("value array does not match the grid")
        if np.any(vals < 0):
            raise PreconditionError("density values must be >= 0")
        mass = vals.sum() * self.grid.spacing
        if abs(mass - 1.0) > MASS_DEFECT_LIMIT:
            raise PreconditionError(
                f"grid mass {float(mass)!r} deviates from 1 beyond {MASS_DEFECT_LIMIT}"
            )
        vals = vals / mass
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.spacing)


def discretize(dist: GaussianMixture, grid: SpaceGrid) -> GridDensity:
    """Evaluate the mixture density at the midpoints of ``grid`` and
    renormalize.

    Raises :class:`MassDefectError` when the tail bound for the mass outside
    the grid's box exceeds ``MASS_DEFECT_LIMIT``.
    """
    defect = tail_mass_bound(dist, (grid.lo, grid.hi))
    if defect > MASS_DEFECT_LIMIT:
        raise MassDefectError(defect, MASS_DEFECT_LIMIT)
    return GridDensity(grid, dist.pdf(grid.nodes()), mass_defect=defect)


def common_grid(
    a: GaussianMixture,
    b: GaussianMixture,
    box_sigmas: float = DEFAULT_BOX_SIGMAS,
    resolution: int | None = None,
) -> SpaceGrid:
    """Smallest sigma-box covering both mixtures, at ``resolution`` nodes
    (``DEFAULT_RESOLUTION`` unless given)."""
    (lo_a, hi_a), (lo_b, hi_b) = sigma_box(a, box_sigmas), sigma_box(b, box_sigmas)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
    # the negated test also rejects nan
    if not hi - lo < math.inf:
        raise PreconditionError(
            f"box_sigmas = {box_sigmas!r} makes the grid box wider than the float range"
        )
    return SpaceGrid(lo, hi, DEFAULT_RESOLUTION if resolution is None else resolution)


# ---------------------------------------------------------------------------
# atom sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomSet:
    """Finitely supported probability: locations (n, d) and masses (n,)."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim == 1:
            loc = loc[:, None]
        m = np.asarray(self.masses, dtype=float)
        if loc.ndim != 2 or m.ndim != 1 or loc.shape[0] != m.shape[0]:
            raise PreconditionError("locations (n, d) and masses (n,) required")
        if loc.shape[1] == 0:
            raise PreconditionError("atom locations need d >= 1 coordinates")
        if not np.all(np.isfinite(loc)):
            raise PreconditionError("atom locations must be finite")
        if np.any(m <= 0) or np.any(m > 1):
            raise PreconditionError("atom masses must lie in (0, 1]")
        if abs(m.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"atom masses sum to {float(m.sum())!r}, not 1")
        loc.flags.writeable = False
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", m)

    @property
    def d(self) -> int:
        return self.locations.shape[1]

    def __len__(self):
        return self.locations.shape[0]
