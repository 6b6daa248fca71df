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

# Default per-axis grid resolution by dimension (powers of two).
DEFAULT_RESOLUTION = {1: 4096, 2: 512, 3: 64}

# Default half-width of sigma boxes, in per-component standard deviations.
DEFAULT_BOX_SIGMAS = 10.0


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceGrid:
    """Uniform rectangular grid of cell midpoints.

    The box ``[lo_j, hi_j]`` on axis ``j`` is split into ``shape[j]`` equal
    cells; node ``k`` sits at the midpoint ``lo_j + (k + 1/2) h_j``.  The dual
    frequency grid (see :meth:`freq_axes`) has nodes ``-U_j + m * du_j`` with
    ``U_j = pi / h_j`` and ``du_j = 2 pi / (n_j h_j)``, so ``u = 0`` is always
    a node.

    A grid is a value (``lo``, ``hi``, ``shape``), but it keeps what it
    derives from them: its node and frequency axes, meshes and radii, its
    FFT phase vectors and its refined grids are computed on
    first use and then returned as the same read-only arrays and grids, so
    every density, transform and envelope on one grid shares them.  The
    kept data goes away with the grid.  Concurrent first uses recompute the
    same deterministic value.
    """

    lo: tuple
    hi: tuple
    shape: tuple
    # derived arrays and grids, built on first use by _keep; derived data,
    # so not part of the value
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.shape):
            raise PreconditionError("box and resolution ranks differ")
        # the negated test also rejects nan and a length past the float range
        if not all(0 < h - l < math.inf for l, h in zip(self.lo, self.hi)):
            raise PreconditionError("box intervals must have finite positive length")
        if not all(_is_pow2(int(n)) for n in self.shape):
            raise PreconditionError("per-axis resolution must be a power of two")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    def _keep(self, key, compute):
        """``compute()`` on the first call for ``key``, then the kept result;
        the arrays it returns, alone or in a tuple, are made read-only."""
        if key not in self._derived:
            value = compute()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> np.ndarray:
        return self._keep("spacings", lambda: (
            (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.shape)
        ))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> tuple:
        hs = self.spacings
        return self._keep("axes", lambda: tuple(
            self.lo[j] + (np.arange(self.shape[j]) + 0.5) * hs[j]
            for j in range(self.d)
        ))

    def mesh(self) -> tuple:
        return self._keep(
            "mesh", lambda: tuple(np.meshgrid(*self.axes(), indexing="ij"))
        )

    def radii(self) -> np.ndarray:
        """Euclidean norm ``|x|`` at every node."""
        return self._keep("radii", lambda: np.sqrt(sum(m * m for m in self.mesh())))

    def freq_axes(self) -> tuple:
        def compute():
            out = []
            for n, h in zip(self.shape, self.spacings):
                du = 2.0 * math.pi / (n * h)
                out.append((np.arange(n) - n // 2) * du)
            return tuple(out)

        return self._keep("freq_axes", compute)

    def freq_spacings(self) -> np.ndarray:
        return 2.0 * math.pi / (np.asarray(self.shape) * self.spacings)

    def freq_mesh(self) -> tuple:
        return self._keep(
            "freq_mesh", lambda: tuple(np.meshgrid(*self.freq_axes(), indexing="ij"))
        )

    def freq_radii(self) -> np.ndarray:
        return self._keep(
            "freq_radii", lambda: np.sqrt(sum(m * m for m in self.freq_mesh()))
        )

    def freq_cell_volume(self) -> float:
        return float(np.prod(self.freq_spacings()))

    def phases(self, sign: float) -> tuple:
        """Per-axis factors ``exp(sign * i * u * x0)`` over the frequencies
        in FFT (wrapped) order, each broadcastable over the grid: the box
        offset correction of the transforms in :mod:`tvrates.spectral`."""

        def compute():
            out = []
            for j, (lo, n, h) in enumerate(zip(self.lo, self.shape, self.spacings)):
                shape = [1] * self.d
                shape[j] = n
                uw = 2.0 * math.pi * np.fft.fftfreq(n, d=h)
                out.append(np.exp(sign * 1j * uw * (lo + 0.5 * h)).reshape(shape))
            return tuple(out)

        return self._keep(("phases", sign), compute)

    def refined(self, factor: int = 2) -> "SpaceGrid":
        """Same box with ``factor`` times as many nodes per axis; the grid
        itself for a factor of 1."""
        if factor == 1:
            return self
        return self._keep(("refined", factor), lambda: SpaceGrid(
            self.lo, self.hi, tuple(n * factor for n in self.shape)
        ))


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

def _as_mixture_arrays(weights, means, covs):
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    m = np.asarray(means, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    c = np.asarray(covs, dtype=float)
    if c.ndim == 1:
        c = c[:, None, None]
    elif c.ndim == 2 and m.shape[1] == 1:
        # list of 1x1 matrices collapsed by asarray
        c = c.reshape(len(w), 1, 1)
    return w, m, c


class GaussianMixture:
    """Finite Gaussian mixture on R^d with exact densities and moments.

    Parameters
    ----------
    weights : (K,) array-like, positive, summing to 1 within 1e-12
    means : (K, d) array-like (a (K,) vector is promoted to d = 1)
    covs : (K, d, d) array-like of symmetric positive-definite matrices
    """

    def __init__(self, weights, means, covs):
        w, m, c = _as_mixture_arrays(weights, means, covs)
        if w.ndim != 1 or len(w) == 0:
            raise PreconditionError("weights must be a non-empty vector")
        # nan fails both comparisons, so it is rejected with the rest
        if not np.all((w > 0) & (w <= 1)):
            raise PreconditionError("weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"weights sum to {w.sum()!r}, not 1")
        if m.shape[0] != len(w) or c.shape[0] != len(w):
            raise PreconditionError("component count mismatch")
        d = m.shape[1]
        if d < 1:
            raise PreconditionError("dimension must be >= 1")
        if c.shape[1:] != (d, d):
            raise PreconditionError("covariance shape mismatch")
        if not np.allclose(c, np.swapaxes(c, 1, 2), atol=1e-12):
            raise PreconditionError("covariances must be symmetric")
        if not np.all(np.isfinite(m)) or not np.all(np.isfinite(c)):
            raise PreconditionError("parameters must be finite")

        self._w = w
        self._m = m
        self._c = c
        self._d = d
        try:
            self._chol = np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            raise PreconditionError("covariances must be positive definite") from None
        self._chol_inv = np.linalg.inv(self._chol)
        self._log_norm = -0.5 * d * math.log(2.0 * math.pi) - np.log(
            np.abs(self._chol.diagonal(axis1=1, axis2=2)).prod(axis=1)
        )
        arrays = (self._w, self._m, self._c, self._chol, self._chol_inv,
                  self._log_norm)
        for a in arrays:
            a.flags.writeable = False

    # -- basic accessors ----------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    @property
    def n_components(self) -> int:
        return len(self._w)

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def means(self) -> np.ndarray:
        return self._m

    @property
    def covs(self) -> np.ndarray:
        return self._c

    def __eq__(self, other):
        return (
            isinstance(other, GaussianMixture)
            and self._w.shape == other._w.shape
            and self._d == other._d
            and np.array_equal(self._w, other._w)
            and np.array_equal(self._m, other._m)
            and np.array_equal(self._c, other._c)
        )

    def __repr__(self):
        return f"GaussianMixture(d={self._d}, K={len(self._w)})"

    # -- density / cf -------------------------------------------------------

    def pdf(self, x) -> np.ndarray:
        """Mixture density at points ``x`` of shape (..., d) (or scalars in 1-D)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        if self._d == 1 and (scalar or x.shape[-1] != 1):
            x = x.reshape(x.shape + (1,))
        if x.shape[-1] != self._d:
            raise PreconditionError(
                f"point dimension {x.shape[-1]} != distribution dimension {self._d}"
            )
        diff = x[..., None, :] - self._m  # (..., K, d)
        z = np.einsum("kij,...kj->...ki", self._chol_inv, diff)
        expo = -0.5 * np.sum(z * z, axis=-1) + self._log_norm
        out = np.sum(self._w * np.exp(expo), axis=-1)
        return float(out) if scalar else out

    def char_fn(self, u) -> np.ndarray:
        """Characteristic function E exp(i <u, X>) at frequencies ``u``.

        Accepts shape (..., d) (or scalars in 1-D) and returns complex values
        of shape (...). Exact: sum_k w_k exp(i <u, m_k> - u' S_k u / 2).
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        if self._d == 1 and (scalar or u.shape[-1] != 1):
            u = u.reshape(u.shape + (1,))
        if u.shape[-1] != self._d:
            raise PreconditionError("frequency dimension mismatch")
        phase = np.einsum("...j,kj->...k", u, self._m)
        quad = np.einsum("...i,kij,...j->...k", u, self._c, u)
        out = np.sum(self._w * np.exp(1j * phase - 0.5 * quad), axis=-1)
        return complex(out) if scalar else out

    # -- one-dimensional cdf / quantile --------------------------------------

    def cdf(self, x) -> np.ndarray:
        """Mixture CDF; one-dimensional mixtures only."""
        self._require_1d()
        x = np.asarray(x, dtype=float)
        s = np.sqrt(self._c[:, 0, 0])
        z = (x[..., None] - self._m[:, 0]) / s
        return np.sum(self._w * special.ndtr(z), axis=-1)

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
        """E |X|^p for real p >= 0 (Euclidean norm).

        Closed form for even integer p in any dimension (moments of the
        quadratic form |X|^2 from its cumulants) and for any other p in
        dimension one (Gaussian absolute moments via the confluent
        hypergeometric function); other orders need d = 1.  Relative error
        <= 1e-8.
        """
        if not 0 <= p < math.inf:
            raise PreconditionError(f"moment order must be finite and >= 0, got {p!r}")
        if p == 0:
            return 1.0
        if float(p).is_integer() and int(p) % 2 == 0:
            p = int(p)
            terms = (_norm_sq_moment(mu, cov, p // 2) for mu, cov in zip(self._m, self._c))
        else:
            self._require_1d()
            terms = (
                _gauss_abs_moment_1d(m, math.sqrt(c), p)
                for m, c in zip(self._m[:, 0], self._c[:, 0, 0])
            )
        return self._finite_mean(terms, f"moment of order {p} (E|X|^{p})")

    def exp_abs_moment(self, r: float) -> float:
        """E exp(r |X|) for finite r >= 0; closed form in dimension one."""
        if not 0 <= r < math.inf:
            raise PreconditionError(f"rate must be finite and >= 0, got {r!r}")
        if r == 0:
            return 1.0
        self._require_1d()

        def terms():
            for m, c in zip(self._m[:, 0], self._c[:, 0, 0]):
                s = math.sqrt(c)
                # E e^{r|X|} = e^{rm + r^2 s^2/2} Phi(m/s + rs) + e^{-rm + r^2 s^2/2} Phi(-m/s + rs)
                half = 0.5 * r * r * c
                yield (
                    math.exp(r * m + half) * special.ndtr(m / s + r * s)
                    + math.exp(-r * m + half) * special.ndtr(-m / s + r * s)
                )

        return self._finite_mean(terms(), f"exponential moment E exp({r}|X|)")

    def _finite_mean(self, terms, what: str) -> float:
        """The weighted sum of per-component ``terms``, or PreconditionError
        naming ``what`` once it leaves the float range: numpy overflow
        warnings are suppressed, and an OverflowError (from a factorial,
        a power or ``math.exp``) counts as an infinite term."""
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for w, term in zip(self._w, terms):
                    total += w * term
            except OverflowError:
                total = math.inf
        if not math.isfinite(total):
            raise PreconditionError(f"{what} is not a finite float")
        return total

    # -- transformations -------------------------------------------------------

    def smooth(self, sigma: float) -> "GaussianMixture":
        """Law of X + theta with theta ~ N(0, sigma^2 I) independent of X."""
        if sigma <= 0:
            raise PreconditionError("smoothing width must be > 0")
        bump = sigma * sigma * np.eye(self._d)
        return GaussianMixture(self._w, self._m, self._c + bump)

    def translate(self, shift) -> "GaussianMixture":
        shift = np.broadcast_to(np.asarray(shift, dtype=float), (self._d,))
        return GaussianMixture(self._w, self._m + shift, self._c)

    def scale(self, factor: float) -> "GaussianMixture":
        """Law of factor * X."""
        if factor <= 0:
            raise PreconditionError("scale factor must be > 0")
        return GaussianMixture(self._w, self._m * factor, self._c * factor**2)

    def sample(self, n: int, seed) -> "AtomSet":
        """n i.i.d. draws with equal masses 1/n; deterministic given seed."""
        if n < 1:
            raise PreconditionError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(self._w), size=n, p=self._w)
        z = rng.standard_normal((n, self._d))
        pts = self._m[idx] + np.einsum("nij,nj->ni", self._chol[idx], z)
        return AtomSet(pts, np.full(n, 1.0 / n))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "d": self._d,
            "components": [
                {"w": float(w), "mean": m.tolist(), "cov": c.tolist()}
                for w, m, c in zip(self._w, self._m, self._c)
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "GaussianMixture":
        """The mixture of a :meth:`to_json` document; a missing or malformed
        field raises PreconditionError naming it."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        d = _json_numbers(doc, "d")
        if d.ndim != 0 or not (d >= 1 and float(d).is_integer()):
            raise PreconditionError(
                f"mixture field d must be an integer >= 1, got {d!r}"
            )
        d = int(d)
        comps = doc.get("components")
        if not isinstance(comps, list) or not comps:
            raise PreconditionError(
                f"mixture field components must be a non-empty list, got {comps!r}"
            )
        w, m, cov = [], [], []
        for i, comp in enumerate(comps):
            where = f"components[{i}]."
            fields = ((w, "w", ()), (m, "mean", (d,)), (cov, "cov", (d, d)))
            for out, key, shape in fields:
                value = _json_numbers(comp, key, where)
                # a 1-D document may give a mean or variance as a bare number
                if value.size != math.prod(shape):
                    raise PreconditionError(
                        f"mixture field {where}{key} must hold {math.prod(shape)} "
                        f"numbers for d = {d}"
                    )
                out.append(value.reshape(shape))
        return cls(w, m, cov)

    def _require_1d(self):
        if self._d != 1:
            raise PreconditionError("operation requires a one-dimensional mixture")


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


def gaussian(mean, cov) -> GaussianMixture:
    """Single-component mixture; scalars are accepted in dimension one."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    return GaussianMixture([1.0], mean[None, :], cov[None, :, :])


def mixture_quantiles(items) -> list:
    """Quantiles of one-dimensional mixtures: ``items`` is a sequence of
    ``(law, u)`` with ``u`` a level or an array of levels in (0, 1), and
    item ``i`` of the result is the law's quantiles at ``u`` (a float for
    a scalar level, else an array of ``u``'s shape).

    The items are grouped by component count, so every level's CDF sums
    the same number of terms in the same order, and each group is solved
    in one bisection (:func:`_bisect`) in which every item keeps its own
    bracket, tolerance and stopping test.  So an item's result does not
    depend on the other items: it equals ``law.quantile(u)`` bit for bit.
    A level outside (0, 1), nan included, raises PreconditionError.
    """
    items = [(law, np.asarray(u, dtype=float)) for law, u in items]
    for law, v in items:
        law._require_1d()
        # nan fails both comparisons, so it is rejected with the rest
        if not np.all((v > 0.0) & (v < 1.0)):
            raise PreconditionError("quantile level must lie in (0, 1)")
    groups = {}
    for i, (law, _) in enumerate(items):
        groups.setdefault(law.n_components, []).append(i)
    out = [None] * len(items)
    for group in groups.values():
        for i, x in zip(group, _bisect([items[i] for i in group])):
            out[i] = x
    return out


def _bisect(items) -> list:
    """The bisection of :func:`mixture_quantiles` for items ``(law, levels)``
    whose laws share one component count."""
    distinct, los, his, tols, rows = [], [], [], [], []
    for law, v in items:
        # weights sum to 1 only within 1e-12: levels are fractions of their
        # sum, and the upper bracket stops growing once the CDF reaches it
        total = float(law.weights.sum())
        means, s = law.means[:, 0], np.sqrt(law.covs[:, 0, 0])
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
        while levels.size and (top := law.cdf(hi)) <= levels[-1] and top < total:
            hi += (hi - lo)
        distinct.append((levels, inverse))
        los.append(lo)
        his.append(hi)
        tols.append(1e-14 * max(1.0, abs(lo), abs(hi)))
        rows.append((means, s, law.weights))
    sizes = np.array([levels.size for levels, _ in distinct])
    edges = np.concatenate([[0], np.cumsum(sizes)])
    levels = np.concatenate([lv for lv, _ in distinct])
    # each level's row carries its law's parameters
    means, s, weights = (np.repeat(np.stack(p), sizes, axis=0) for p in zip(*rows))
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
        np.divide(np.subtract(mid[:, None], means, out=z), s, out=z)
        np.multiply(weights, special.ndtr(z, out=z), out=z)
        np.less(np.sum(z, axis=-1, out=cdf), levels, out=below)
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


def _norm_sq_moment(mu, cov, k: int) -> float:
    """E (|X|^2)^k for X ~ N(mu, cov) via the cumulants of the quadratic form:
    kappa_j = 2^{j-1} (j-1)! [tr(cov^j) + j mu' cov^{j-1} mu].

    All k cumulants come from one stack of the powers cov^0..cov^k, built
    by the chained products ``power @ cov``; the traces and quadratic forms
    are read off the whole stack, and each m_n is a left-to-right sum."""
    if k == 0:
        return 1.0
    powers = np.empty((k + 1,) + cov.shape)
    powers[0] = np.eye(len(mu))
    for j in range(k):
        np.matmul(powers[j], cov, out=powers[j + 1])
    traces = np.trace(powers[1:], axis1=1, axis2=2)
    # vecdot takes one dot product per row, as mu @ power @ mu does per order
    quad = np.vecdot(mu @ powers[:-1], mu)
    kappa = np.empty(k + 1)
    kappa[1:] = _cumulant_scales(k) * (traces + np.arange(1, k + 1) * quad)
    m = np.empty(k + 1)
    m[0] = 1.0
    for n in range(1, k + 1):
        # m_n = sum_i C(n-1, i) kappa_{n-i} m_i, summed left to right
        m[n] = np.add.accumulate(_binomial_row(n - 1) * kappa[n:0:-1] * m[:n])[-1]
    return float(m[k])


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

def sigma_box(dist: GaussianMixture, k_sigma: float = DEFAULT_BOX_SIGMAS) -> np.ndarray:
    """Per-axis interval [min_c(m - k s), max_c(m + k s)], shape (d, 2)."""
    s = np.sqrt(np.einsum("kjj->kj", dist.covs))
    lo = np.min(dist.means - k_sigma * s, axis=0)
    hi = np.max(dist.means + k_sigma * s, axis=0)
    return np.stack([lo, hi], axis=1)


def tail_mass_bound(dist: GaussianMixture, box) -> float:
    """Union bound on the mixture mass outside ``box`` from per-axis
    marginal Gaussian tails."""
    box = np.asarray(box, dtype=float).reshape(dist.d, 2)
    s = np.sqrt(np.einsum("kjj->kj", dist.covs))
    lo_tail = special.ndtr((box[:, 0] - dist.means) / s)
    hi_tail = special.ndtr(-((box[:, 1] - dist.means) / s))
    per_comp = np.sum(lo_tail + hi_tail, axis=1)
    return float(np.sum(dist.weights * np.minimum(per_comp, 1.0)))


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
        if vals.shape != self.grid.shape:
            raise PreconditionError("value array does not match grid shape")
        if np.any(vals < 0):
            raise PreconditionError("density values must be >= 0")
        mass = vals.sum() * self.grid.cell_volume
        if abs(mass - 1.0) > MASS_DEFECT_LIMIT:
            raise PreconditionError(
                f"grid mass {mass!r} deviates from 1 beyond {MASS_DEFECT_LIMIT}"
            )
        vals = vals / mass
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return self.grid.d

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)


def discretize(dist: GaussianMixture, grid: SpaceGrid) -> GridDensity:
    """Evaluate the mixture density at the midpoints of ``grid`` and
    renormalize.

    Raises :class:`MassDefectError` when the tail bound for the mass outside
    the grid's box exceeds ``MASS_DEFECT_LIMIT``.
    """
    if grid.d != dist.d:
        raise PreconditionError(
            f"grid dimension {grid.d} != distribution dimension {dist.d}"
        )
    defect = tail_mass_bound(dist, np.stack([grid.lo, grid.hi], axis=1))
    if defect > MASS_DEFECT_LIMIT:
        raise MassDefectError(defect, MASS_DEFECT_LIMIT)
    pts = np.stack(grid.mesh(), axis=-1)
    return GridDensity(grid, dist.pdf(pts), mass_defect=defect)


def common_grid(
    a: GaussianMixture,
    b: GaussianMixture,
    box_sigmas: float = DEFAULT_BOX_SIGMAS,
    resolution=None,
) -> SpaceGrid:
    """Smallest sigma-box covering both mixtures, at the default resolution
    for their dimension unless overridden."""
    if a.d != b.d:
        raise PreconditionError("dimension mismatch")
    ba = sigma_box(a, box_sigmas)
    bb = sigma_box(b, box_sigmas)
    lo = np.minimum(ba[:, 0], bb[:, 0])
    hi = np.maximum(ba[:, 1], bb[:, 1])
    # the negated test also rejects nan
    if not all(h - l < math.inf for l, h in zip(lo.tolist(), hi.tolist())):
        raise PreconditionError(
            f"box_sigmas = {box_sigmas!r} makes the grid box wider than the float range"
        )
    if resolution is None:
        if a.d not in DEFAULT_RESOLUTION:
            raise PreconditionError("no default resolution for d > 3; pass one")
        resolution = DEFAULT_RESOLUTION[a.d]
    if np.isscalar(resolution):
        resolution = (int(resolution),) * a.d
    return SpaceGrid(tuple(lo), tuple(hi), tuple(resolution))


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
        if not np.all(np.isfinite(loc)):
            raise PreconditionError("atom locations must be finite")
        if np.any(m <= 0) or np.any(m > 1):
            raise PreconditionError("atom masses must lie in (0, 1]")
        if abs(m.sum() - 1.0) > 1e-12:
            raise PreconditionError(f"atom masses sum to {m.sum()!r}, not 1")
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
