"""Gaussian mixture laws, uniform-grid densities and weighted atom sets.

The analytic family is restricted to Gaussian mixtures: they have closed-form
densities, characteristic functions and moments, and their densities together
with all derivatives decay faster than any polynomial, which is exactly what
the decay-envelope machinery in :mod:`tvrates.spectral` needs.  Heavy-tailed
or singular laws enter the toolkit only after convolution smoothing
(:meth:`GaussianMixture.smooth`).

All types are immutable after construction; operations never mutate inputs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

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
    """

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.shape):
            raise PreconditionError("box and resolution ranks differ")
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise PreconditionError("box intervals must have positive length")
        if not all(_is_pow2(int(n)) for n in self.shape):
            raise PreconditionError("per-axis resolution must be a power of two")
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / np.asarray(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> list[np.ndarray]:
        hs = self.spacings
        return [
            self.lo[j] + (np.arange(self.shape[j]) + 0.5) * hs[j]
            for j in range(self.d)
        ]

    def mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij")

    def radii(self) -> np.ndarray:
        """Euclidean norm ``|x|`` at every node."""
        mesh = self.mesh()
        return np.sqrt(sum(m * m for m in mesh))

    def freq_axes(self) -> list[np.ndarray]:
        out = []
        for n, h in zip(self.shape, self.spacings):
            du = 2.0 * math.pi / (n * h)
            out.append((np.arange(n) - n // 2) * du)
        return out

    def freq_spacings(self) -> np.ndarray:
        return 2.0 * math.pi / (np.asarray(self.shape) * self.spacings)

    def freq_mesh(self) -> list[np.ndarray]:
        return np.meshgrid(*self.freq_axes(), indexing="ij")

    def freq_radii(self) -> np.ndarray:
        mesh = self.freq_mesh()
        return np.sqrt(sum(m * m for m in mesh))

    def freq_cell_volume(self) -> float:
        return float(np.prod(self.freq_spacings()))

    def refined(self, factor: int = 2) -> "SpaceGrid":
        """Same box with ``factor`` times as many nodes per axis."""
        return SpaceGrid(self.lo, self.hi, tuple(n * factor for n in self.shape))


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
        if np.any(w <= 0) or np.any(w > 1):
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

        ``u`` is a level or an array of levels, or a tuple of them: a tuple
        gives the tuple of their quantiles from one bisection, in which each
        item keeps its own bracket and stopping test, so
        ``quantile((u1, u2))`` equals ``(quantile(u1), quantile(u2))`` bit
        for bit.  Each distinct level of an item is bisected once and its
        result scattered back to every position that holds it.  A level
        outside (0, 1), nan included, raises PreconditionError.

        Bisection is deliberately preferred over faster root finders:
        the mixture CDF can be extremely flat between well-separated
        components and bisection is immune to that.
        """
        self._require_1d()
        items = u if isinstance(u, tuple) else (u,)
        u_arrs = [np.asarray(v, dtype=float) for v in items]
        # nan fails both comparisons, so it is rejected with the rest
        if not all(np.all((v > 0.0) & (v < 1.0)) for v in u_arrs):
            raise PreconditionError("quantile level must lie in (0, 1)")
        if not u_arrs:
            return ()
        # weights sum to 1 only within 1e-12: levels are fractions of their
        # sum, and the upper bracket stops growing once the CDF reaches it
        total = float(self._w.sum())
        means, weights = self._m[:, 0], self._w
        s = np.sqrt(self._c[:, 0, 0])
        start = (float(np.min(means - 10.0 * s)), float(np.max(means + 10.0 * s)))
        # equal levels follow one trajectory, so each is bisected once
        distinct = [np.unique(v.ravel() * total, return_inverse=True) for v in u_arrs]
        los, his, edges = [], [], [0]
        for levels, _ in distinct:
            lo, hi = start
            # expand the bracket until it surrounds every level of the item
            while levels.size and self.cdf(lo) >= levels[0]:
                lo -= (hi - lo)
            while levels.size and (top := self.cdf(hi)) <= levels[-1] and top < total:
                hi += (hi - lo)
            los.append(lo)
            his.append(hi)
            edges.append(edges[-1] + levels.size)
        tols = [1e-14 * max(1.0, abs(lo), abs(hi)) for lo, hi in zip(los, his)]
        spans = [slice(i, j) for i, j in zip(edges, edges[1:])]
        levels = np.concatenate([lv for lv, _ in distinct])
        a = np.repeat(los, np.diff(edges))
        b = np.repeat(his, np.diff(edges))
        # the loop evaluates self.cdf(mid) inline, into buffers made once
        mid, width, cdf = np.empty_like(a), np.empty_like(a), np.empty_like(a)
        z = np.empty(a.shape + means.shape)
        below, above = np.empty(a.shape, bool), np.empty(a.shape, bool)
        # an item's values are taken once its own widest bracket is narrow
        results = [None] * len(spans)
        open_items = [i for i, sp in enumerate(spans) if sp.stop > sp.start]
        for _ in range(200):
            np.multiply(np.add(a, b, out=mid), 0.5, out=mid)
            np.divide(np.subtract(mid[..., None], means, out=z), s, out=z)
            np.multiply(weights, special.ndtr(z, out=z), out=z)
            np.less(np.sum(z, axis=-1, out=cdf), levels, out=below)
            np.copyto(a, mid, where=below)
            np.copyto(b, mid, where=np.logical_not(below, out=above))
            np.subtract(b, a, out=width)
            for i in list(open_items):
                if width[spans[i]].max() < tols[i]:
                    results[i] = 0.5 * (a[spans[i]] + b[spans[i]])
                    open_items.remove(i)
            if not open_items:
                break
        out = []
        for v, (_, inverse), sp, res in zip(u_arrs, distinct, spans, results):
            x = (0.5 * (a[sp] + b[sp]) if res is None else res)[inverse]
            out.append(float(x[0]) if v.ndim == 0 else x.reshape(v.shape))
        return tuple(out) if isinstance(u, tuple) else out[0]

    # -- moments --------------------------------------------------------------

    def mean(self) -> np.ndarray:
        return self._w @ self._m

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
        if isinstance(doc, str):
            doc = json.loads(doc)
        comps = doc["components"]
        w = [c["w"] for c in comps]
        m = [c["mean"] for c in comps]
        cov = [c["cov"] for c in comps]
        gm = cls(w, m, cov)
        if gm.d != int(doc["d"]):
            raise PreconditionError("declared dimension does not match components")
        return gm

    def _require_1d(self):
        if self._d != 1:
            raise PreconditionError("operation requires a one-dimensional mixture")


def gaussian(mean, cov) -> GaussianMixture:
    """Single-component mixture; scalars are accepted in dimension one."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    return GaussianMixture([1.0], mean[None, :], cov[None, :, :])


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

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "atoms": [
                {"x": x.tolist(), "m": float(m)}
                for x, m in zip(self.locations, self.masses)
            ],
        }

    @classmethod
    def from_json(cls, doc) -> "AtomSet":
        if isinstance(doc, str):
            doc = json.loads(doc)
        locs = np.array([a["x"] for a in doc["atoms"]], dtype=float)
        masses = np.array([a["m"] for a in doc["atoms"]], dtype=float)
        out = cls(locs, masses)
        if out.d != int(doc["d"]):
            raise PreconditionError("declared dimension does not match atoms")
        return out
