"""Probability metrics: weighted total variation, total variation mass,
q-Wasserstein distances and a Fortet-Mourier upper bound.

Density-based distances (rho_p, tv) are computed by grid quadrature with a
Richardson-style refinement difference as the error estimate.  Wasserstein
distances come in three flavors: the one-dimensional quantile representation
(Gauss-Hermite quadrature after the normal substitution), an exact discrete
solver (sorting in one dimension; in higher dimensions only an assignment
between two sets of n atoms of equal mass, every other pair is a
:class:`PreconditionError`), and an annealed Sinkhorn solver
whose reported value is always the cost of a rounded feasible plan, hence an
upper bound on the exact cost.  Its sweeps run as scalings of one kernel
per annealing stage, built from log potentials that absorb the scalings only
at the stage end or when they leave ``SCALING_RANGE``; a block whose kernel
under- or overflows reruns in the log domain.  The slow tail of a stage is
over-relaxed at a weight set from its observed contraction, and each
stage's marginal exit is paced by the previous stage's duality gap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .distributions import (
    AtomSet,
    GaussianMixture,
    SpaceGrid,
    _require_mixtures,
    common_grid,
    discretize,
    mixture_quantiles,
    sigma_box,
)
from .errors import ConvergenceError, NumericalError, PreconditionError

__all__ = [
    "DistanceResult",
    "TransportPlan",
    "rho_p",
    "tv_mass",
    "wasserstein_1d",
    "ot_exact",
    "ot_entropic",
    "fm_upper",
]

# Largest cost matrix the assignment path of ot_exact (d > 1) will build.
OT_SIZE_LIMIT = 1_000_000


@dataclass(frozen=True)
class DistanceResult:
    """A computed distance with its method tag and error estimate."""

    value: float
    method: str
    err: float = 0.0

    _METHODS = ("quantile-quadrature", "exact-ot", "entropic-ot", "grid-quadrature")

    def __post_init__(self):
        if self.method not in self._METHODS:
            raise PreconditionError(f"unknown method tag {self.method!r}")
        # the negated test also rejects NaN
        if not (self.value >= 0 and self.err >= 0):
            raise PreconditionError(
                f"distance {self.value!r} and error estimate {self.err!r} "
                "must be numbers >= 0"
            )

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method, "err": self.err}


def _require_exponent(x: float, name: str, low: float, strict: bool = False):
    """Reject an exponent that is not a finite number >= ``low`` (> ``low``
    if ``strict``); every weight power and cost exponent goes through here,
    and so does the relative accuracy of :func:`ot_entropic`."""
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = f"{'>' if strict else '>='} {low:g}"
        raise PreconditionError(f"{name} must be a finite number {bound}, got {x!r}")


# ---------------------------------------------------------------------------
# grid quadrature distances
# ---------------------------------------------------------------------------

def _weighted_l1(va: np.ndarray, vb: np.ndarray, grid: SpaceGrid, p: float) -> float:
    diff = np.abs(va - vb)
    if p > 0:
        with np.errstate(over="ignore"):
            weight = grid.radii() ** p
        if not math.isfinite(weight.max()):
            raise NumericalError(
                f"the weight |x|^p at p = {p!r} leaves the float range on the "
                f"grid box [{grid.lo:.6g}, {grid.hi:.6g}]"
            )
        diff = diff * (1.0 + weight)
    return float(diff.sum() * grid.spacing)


# Largest number of grid doublings of the quadrature ladder.
MAX_REFINEMENTS = 4

# Refinement tolerance of the grid quadrature distances.
QUADRATURE_TOL = 1e-4


def refine_weighted_l1(densities, powers) -> tuple:
    """One refinement ladder for several weight powers of one pair.

    ``densities(level)`` returns the pair's grid densities on the base grid
    refined ``level`` times (doubling the nodes each time).  Each power's
    value is the weighted L1 difference at the first level whose change
    against the level below is at most ``QUADRATURE_TOL``, with that
    change as its error, so the result for a power does not depend on the
    other powers.  The ladder runs at most ``MAX_REFINEMENTS`` levels,
    stops once every power has resolved and returns one
    :class:`DistanceResult` per power, in order.
    """
    fa, fb = densities(0)
    values = [_weighted_l1(fa.values, fb.values, fa.grid, p) for p in powers]
    results = [None] * len(powers)
    err = math.inf
    for level in range(1, MAX_REFINEMENTS + 1):
        fa, fb = densities(level)
        for i, p in enumerate(powers):
            if results[i] is None:
                value = _weighted_l1(fa.values, fb.values, fa.grid, p)
                err = abs(value - values[i])
                values[i] = value
                if err <= QUADRATURE_TOL:
                    results[i] = DistanceResult(value, "grid-quadrature", err)
        if all(r is not None for r in results):
            return tuple(results)
    raise NumericalError(
        f"quadrature did not reach tol {QUADRATURE_TOL:.3e} "
        f"(last estimate {err:.3e}); "
        "the pair is unresolvable at the allowed resolutions"
    )


def rho_p(a, b, p: float) -> DistanceResult:
    """Weighted total variation int (1 + |x|^p) |f_a - f_b| dx for p > 0.

    The zero-power weight is the constant 1, so rho_p(a, b, 0) equals the
    total variation mass int |f_a - f_b| dx (twice the usual TV probability
    metric).  Both mixtures are discretized on their :func:`common_grid`
    and refined until the refinement difference drops below
    ``QUADRATURE_TOL``, through :func:`refine_weighted_l1`, the ladder that
    :class:`tvrates.bounds.PairEvaluation` runs once for rho_p and tv
    together on its laws' kept densities, so both paths give the same bits.
    """
    _require_exponent(p, "weight power p", 0.0)
    _require_mixtures(a, b)
    g = common_grid(a, b)

    def densities(level):
        fine = g.refined(2**level)
        return discretize(a, fine), discretize(b, fine)

    return refine_weighted_l1(densities, (p,))[0]


def tv_mass(a, b) -> DistanceResult:
    """Total variation mass int |f_a - f_b| dx."""
    return rho_p(a, b, 0.0)


# ---------------------------------------------------------------------------
# one-dimensional Wasserstein
# ---------------------------------------------------------------------------

@functools.cache
def _normal_rule(n_nodes: int):
    """Gauss-Hermite weights and their levels u = Phi(sqrt(2) s), read-only."""
    s, w = np.polynomial.hermite.hermgauss(n_nodes)
    u = np.clip(ndtr(math.sqrt(2.0) * s), 1e-16, 1.0 - 1e-16)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def normal_levels(n_nodes: int) -> np.ndarray:
    """The quantile levels at which the order-``n_nodes`` rule of
    :func:`wasserstein_1d` reads both laws' quantile functions."""
    return _normal_rule(n_nodes)[0]


# Smallest normal double.
_TINY = float(np.finfo(float).tiny)


def _quantile_wq(xa, xb, q: float) -> float:
    """int_0^1 |Qa - Qb|^q du with u = Phi(t), by Gauss-Hermite after
    t = sqrt(2) s on the rule of order ``len(xa)``, to the power 1/q.  When
    a nonzero term |Qa - Qb|^q or the sum leaves the normal float range
    (large q), m = max |Qa - Qb| is factored out:
    W = m (sum w (|Qa - Qb| / m)^q / sqrt(pi))^(1/q)."""
    w = _normal_rule(len(xa))[1]
    diff = np.abs(xa - xb)
    with np.errstate(over="ignore"):
        g = diff**q
    total = float(np.sum(w * g) / math.sqrt(math.pi))
    terms = g[diff > 0]
    if terms.size == 0 or (
        _TINY <= terms.min() and terms.max() < math.inf and _TINY <= total < math.inf
    ):
        return total ** (1.0 / q)
    m = float(diff.max())
    return m * float(np.sum(w * (diff / m) ** q) / math.sqrt(math.pi)) ** (1.0 / q)


# The Gauss-Hermite rule orders of W_q quadrature: the error check, the value.
QUANTILE_ORDERS = (128, 256)


def wasserstein_1d(a, b, q: float) -> DistanceResult:
    """W_q via the quantile representation, for q > 1 between two 1-D
    mixtures.

    The unit-interval integral is computed under the normal substitution
    u = Phi(t) on a Gauss-Hermite rule, which removes the inverse-CDF blowup
    at the endpoints.  Both laws are solved at both orders of
    ``QUANTILE_ORDERS`` in one
    :func:`tvrates.distributions.mixture_quantiles` call, in which each
    law's orders are items with their own stopping tests; the doubled order
    gives the value, and its difference from the other order the error
    estimate.  q <= 1 is rejected: the certificate machinery requires
    q > 1 (use :func:`ot_exact` for discrete W_1).
    """
    _require_exponent(q, "quantile quadrature exponent q", 1.0, strict=True)
    _require_mixtures(a, b)
    levels = [normal_levels(n) for n in QUANTILE_ORDERS]
    qa1, qa2, qb1, qb2 = mixture_quantiles([(law, u) for law in (a, b) for u in levels])
    v1, v2 = _quantile_wq(qa1, qb1, q), _quantile_wq(qa2, qb2, q)
    return DistanceResult(v2, "quantile-quadrature", abs(v2 - v1))


def _w1_cdf_1d(a: GaussianMixture, b: GaussianMixture) -> DistanceResult:
    """W_1 = int |F_a - F_b| dx for one-dimensional mixtures, by grid sums."""
    (lo_a, hi_a), (lo_b, hi_b) = sigma_box(a, 12.0), sigma_box(b, 12.0)
    left, right = min(lo_a, lo_b), max(hi_a, hi_b)

    def value(m):
        xs = np.linspace(left, right, m)
        return float(np.trapezoid(np.abs(a.cdf(xs) - b.cdf(xs)), xs))

    v1, v2 = value(16384), value(32768)
    return DistanceResult(v2, "grid-quadrature", abs(v2 - v1))


# ---------------------------------------------------------------------------
# discrete optimal transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two atom sets as its support cells: cell i moves
    ``masses[i]`` >= 0 from row atom ``rows[i]`` to column atom ``cols[i]``;
    marginals verified to 1e-9, the dense read-only ``matrix`` built on read."""

    row_marginal: AtomSet
    col_marginal: AtomSet
    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for name in ("rows", "cols", "masses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        rows, cols, masses = self.rows, self.cols, self.masses
        if rows.ndim != 1 or not rows.shape == cols.shape == masses.shape:
            raise PreconditionError("plan cells must be three arrays of one length")
        if not (masses >= 0).all():  # the negated test also rejects NaN
            raise PreconditionError("plan masses must be >= 0")
        for idx, side in ((rows, self.row_marginal), (cols, self.col_marginal)):
            # np.bincount would grow its output past an index out of range
            if idx.dtype.kind not in "iu" or not ((idx >= 0) & (idx < len(side))).all():
                raise PreconditionError(f"indices must be integers in [0, {len(side)})")
            if np.abs(np.bincount(idx, masses, len(side)) - side.masses).max() > 1e-9:
                raise PreconditionError("plan cells do not match the marginals")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        plan = np.zeros((len(self.row_marginal), len(self.col_marginal)))
        np.add.at(plan, (self.rows, self.cols), self.masses)
        plan.flags.writeable = False
        return plan


def _cost_matrix(a: AtomSet, b: AtomSet, q: float) -> np.ndarray:
    if a.d != b.d:
        raise PreconditionError("atom sets have different dimensions")
    with np.errstate(over="ignore"):
        # np.linalg.norm over the coordinates, its squares added one
        # coordinate after the other: its bits up to d = 7 (from d = 8 on
        # numpy adds pairwise, which can differ at round-off), without its
        # inner-loop call per atom pair over the short coordinate axis
        sq = None
        for xa, xb in zip(a.locations.T, b.locations.T):
            diff = np.subtract.outer(xa, xb)
            diff *= diff
            sq = diff if sq is None else np.add(sq, diff, out=sq)
        C = np.sqrt(sq, out=sq) ** q
    if not math.isfinite(C.max()):
        raise PreconditionError(
            f"cost |x - y|^q leaves the float range at cost exponent q = {q!r}"
        )
    return C


def _dual_value(C: np.ndarray, u: np.ndarray, a: AtomSet, b: AtomSet) -> float:
    """Value ``a.u + b.v`` of the dual pair made of the row potentials ``u``
    and their c-transform ``v = min_i (C[i, :] - u[i])`` on the columns,
    feasible by construction."""
    v = (C - u[:, None]).min(axis=0)
    return float(a.masses @ u + b.masses @ v)


def _gap_distance(cost: float, gap: float, q: float, method: str) -> DistanceResult:
    """W_q of a plan with transport cost ``cost`` whose duality gap is
    ``gap``; the error is the gap in distance units."""
    value = cost ** (1.0 / q)
    err = value - max(cost - gap, 0.0) ** (1.0 / q)
    return DistanceResult(value, method, max(err, 0.0))


def _ot_sorted_1d(a: AtomSet, b: AtomSet, q: float):
    """North-west-corner rule on the stably sorted supports: the monotone
    (quantile) coupling, optimal for every convex cost |x - y|^q in 1-D, so
    its duality gap is 0.

    Each piece between consecutive cumulative masses of either side carries
    its length from the atom of ``a`` to the atom of ``b`` that cover it.
    """
    ia = np.argsort(a.locations[:, 0], kind="stable")
    ib = np.argsort(b.locations[:, 0], kind="stable")
    ca = np.cumsum(a.masses[ia])
    cb = np.cumsum(b.masses[ib])
    levels = np.unique(np.concatenate([ca[:-1], cb[:-1], [max(ca[-1], cb[-1])]]))
    pieces = np.diff(levels, prepend=0.0)
    rows = ia[np.searchsorted(ca[:-1], levels)]
    cols = ib[np.searchsorted(cb[:-1], levels)]
    cost = float(pieces @ np.abs(a.locations[rows, 0] - b.locations[cols, 0]) ** q)
    return cost, (rows, cols, pieces), 0.0


def _ot_assignment(a: AtomSet, b: AtomSet, q: float):
    """Transport between n atoms of mass w on each side as an assignment,
    with its duality gap, both in cost units.

    The vertices of this transportation polytope are w times permutation
    matrices (Birkhoff-von Neumann), so an optimal matching sigma
    (``linear_sum_assignment``) is an optimal plan.  The row potentials are
    minus the shortest-path distances of its reassignment graph, whose edge
    i -> k costs C[i, sigma(k)] - C[k, sigma(k)], from at most n rounds of
    Bellman-Ford; the columns take their c-transform, so the dual is
    feasible wherever the rounds stop.
    """
    from scipy.optimize import linear_sum_assignment  # not loaded on import

    C = _cost_matrix(a, b, q)
    rows, cols = linear_sum_assignment(C)
    cost = float(a.masses @ C[rows, cols])
    dist = _reassignment_distances(C, cols)
    return cost, (rows, cols, a.masses), max(cost - _dual_value(C, -dist, a, b), 0.0)


def _reassignment_distances(C: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Minus the row potentials of :func:`_ot_assignment`: the distances
    in the reassignment graph of the matching ``cols`` after at most n
    Bellman-Ford rounds, fewer once a round changes nothing."""
    matched = C[:, cols]
    edges = matched - np.diag(matched)[None, :]
    (dist, relaxed), paths = np.zeros((2, len(cols))), np.empty_like(edges)
    for _ in range(len(cols)):
        np.minimum.reduce(np.add(dist[:, None], edges, out=paths), axis=0, out=relaxed)
        # edges[k, k] = 0 keeps relaxed <= dist, and no -0.0 or nan arises
        if relaxed.tobytes() == dist.tobytes():  # no entry decreased
            break
        dist, relaxed = relaxed, dist
    return dist


def ot_exact(a: AtomSet, b: AtomSet, q: float = 2.0):
    """Exact optimal transport for cost |x - y|^q, q >= 1.

    In dimension one the plan is the north-west-corner rule on the stably
    sorted supports (the monotone coupling), exact for any masses and sizes
    in O((n + m) log(n + m)); ``err`` is 0.  In higher dimensions it takes
    two sets of n atoms of equal mass, n^2 <= ``OT_SIZE_LIMIT``, matched as
    an assignment problem (``linear_sum_assignment``) with ``err`` the
    duality gap against a feasible dual, in distance units; any other pair
    raises :class:`PreconditionError` before any solve.  Returns
    ``(DistanceResult, TransportPlan)`` with the distance
    ``W_q = cost^{1/q}`` and the plan's cells in the callers' atom order.
    """
    _require_exponent(q, "cost exponent q", 1.0)
    if a.d != b.d:
        raise PreconditionError("atom sets have different dimensions")
    n, m, w = len(a), len(b), a.masses[0]
    if a.d > 1 and not (n == m and (a.masses == w).all() and (b.masses == w).all()):
        raise PreconditionError(
            "exact OT in d > 1 needs two sets of n atoms of equal mass "
            f"(an assignment); got n = {n}, m = {m}"
            + ("" if n != m else " with unequal masses")
        )
    if a.d > 1 and n * m > OT_SIZE_LIMIT:
        raise PreconditionError(
            f"cost matrix size {n * m} exceeds the limit {OT_SIZE_LIMIT}"
        )
    cost, cells, gap = (_ot_sorted_1d if a.d == 1 else _ot_assignment)(a, b, q)
    return _gap_distance(cost, gap, q, "exact-ot"), TransportPlan(a, b, *cells)


# Annealing schedule, relative to the cost maximum.  The deep tail costs
# nothing for generic pairs (the duality-gap exit fires early) but lets
# near-identical pairs reach an essentially exact plan.
DEFAULT_REG_SCHEDULE = tuple(0.3 * 0.5**k for k in range(44))

# An annealing stage ends once the L1 error of its plan's row marginal is at
# most its marginal target, checked every MARGINAL_CHECK_EVERY sweeps.  The
# first stage's target is MARGINAL_TOL; after a stage whose certificate
# fails with duality gap G at cost c, the next stage's target is
# GAP_EXIT_RATIO * G / c, clipped to [MARGINAL_TOL, MARGINAL_TOL_MAX].  The
# exit only saves sweeps: whether the solver returns is decided by the
# duality-gap certificate alone.
MARGINAL_TOL = 1e-3
MARGINAL_TOL_MAX = 1e-2
GAP_EXIT_RATIO = 0.01
MARGINAL_CHECK_EVERY = 10

# Over-relaxation of the sweeps: after PLAIN_BLOCKS plain blocks of a stage,
# the per-sweep contraction kappa of the last two blocks' row errors sets
# omega = 2 / (1 + sqrt(1 - kappa)), at most OMEGA_MAX, when 0.5 < kappa < 1;
# otherwise the sweeps stay plain (omega = 1).
PLAIN_BLOCKS = 3
OMEGA_MAX = 1.9

# Range of the scalings carried across the blocks of one annealing stage;
# a block that leaves it folds them into the log potentials and rebuilds
# the kernel.
SCALING_RANGE = (1e-8, 1e8)

# Log of the smallest normal double: the floor of a kernel entry's exponent.
_LOG_TINY = math.log(_TINY)

# Cap on the sweeps of one annealing stage.
MAX_STAGE_SWEEPS = 800


def _logsumexp_rows(M):
    top = M.max(axis=1, keepdims=True)
    out = top + np.log(np.sum(np.exp(M - top), axis=1, keepdims=True))
    return out.ravel()


def _kernel(f, g, Cn, eps):
    """The Gibbs kernel ``exp((f + g - Cn) / eps)`` of the log potentials
    ``f``, ``g``.  An entry whose exponent is below the log of the smallest
    normal double is 0: subnormal entries slow every sweep several-fold and
    weigh below round-off in any row sum that has not itself underflowed.
    Entries past the float range are inf."""
    X = (f[:, None] + g[None, :] - Cn) / eps
    X[X < _LOG_TINY] = -np.inf
    with np.errstate(over="ignore"):
        return np.exp(X, out=X)


def _relax_omega(errs):
    """The relaxation weight after a stage's plain blocks with row errors
    ``errs``, by the rule stated at ``OMEGA_MAX`` (the rate-based weight of
    Lehmann, von Renesse, Sambale & Uschmajew, Optim. Lett. 2022)."""
    if len(errs) < PLAIN_BLOCKS:
        return 1.0
    kappa = (errs[-1] / errs[-2]) ** (1.0 / MARGINAL_CHECK_EVERY)
    if not 0.5 < kappa < 1.0:
        return 1.0
    return min(OMEGA_MAX, 2.0 / (1.0 + math.sqrt(1.0 - kappa)))


def _scaling_block(kernel, u, v, ma, mb, n, omega, out):
    """``n`` over-relaxed Sinkhorn sweeps ``u <- u (ma / (u K v))^omega``,
    ``v <- v (mb / (v K^T u))^omega`` from the scalings ``u``, ``v`` (plain
    sweeps ``u = ma / (K v)``, ``v = mb / (K^T u)`` at ``omega = 1``), where
    ``kernel`` is ``K`` and a C-contiguous copy of ``K^T``.  The sweeps run
    in the buffers ``out = (u', v', Kv, K^T u)``; returns ``(u', v', rows)``,
    ``rows`` being the row sums of the plan ``u'[:, None] * K * v'[None, :]``
    in the ``Kv`` buffer.  Zero or non-finite scalings of an under- or
    overflowed kernel come back as they are, under the caller's
    ``np.errstate``."""
    K, KT = kernel
    u_out, v_out, Kv, KTu = out
    if omega == 1.0:
        for _ in range(n):
            u = np.divide(ma, np.dot(K, v, out=Kv), out=u_out)
            v = np.divide(mb, np.dot(KT, u, out=KTu), out=v_out)
    else:
        for _ in range(n):
            np.multiply(u, np.dot(K, v, out=Kv), out=Kv)
            np.power(np.divide(ma, Kv, out=Kv), omega, out=Kv)
            u = np.multiply(u, Kv, out=u_out)
            np.multiply(v, np.dot(KT, u, out=KTu), out=KTu)
            np.power(np.divide(mb, KTu, out=KTu), omega, out=KTu)
            v = np.multiply(v, KTu, out=v_out)
    return u, v, np.multiply(u, np.dot(K, v, out=Kv), out=Kv)


def _rounded_cost(kernel, u, v, rows, ma, mb, C):
    """Cost under ``C`` of the plan ``u[:, None] * K * v[None, :]``, whose
    row sums are ``rows``, after its projection onto the transport polytope
    (Altschuler, Weed & Rigollet, NeurIPS 2017): rows and then columns are
    scaled down to their marginals, and a rank-one correction adds the
    missing mass.  The scalings act on ``u`` and ``v`` and the correction
    enters the cost as ``ea C eb / sum(ea)``, so no plan is formed."""
    K, KT = kernel
    ur = u * np.minimum(1.0, ma / np.maximum(rows, 1e-300))
    cols = v * np.dot(KT, ur)
    c = np.minimum(1.0, mb / np.maximum(cols, 1e-300))
    vc = v * c
    ea = ma - ur * np.dot(K, vc)
    eb = mb - cols * c
    cost = float(ur @ np.dot(K * C, vc))
    gap = float(ea.sum())
    if gap > 1e-300:
        cost += float(ea @ np.dot(C, eb)) / gap
    return cost


def ot_entropic(a: AtomSet, b: AtomSet, q: float = 2.0, rtol: float = 5e-3):
    """Entropically regularized optimal transport with schedule annealing.

    The stages run at the decreasing regularization weights of
    ``DEFAULT_REG_SCHEDULE``, relative to the cost-matrix maximum.  The log
    potentials ``f``, ``g`` warm-start each stage from the last.  Each
    stage builds one kernel ``K = exp((f + g - C / max C) / eps)`` and
    sweeps in blocks of ``MARGINAL_CHECK_EVERY`` scaling updates, each block
    starting from the last block's scalings ``u``, ``v``.  The first
    ``PLAIN_BLOCKS`` blocks of a stage run plain sweeps ``u = a / (K v)``,
    ``v = b / (K^T u)``; then the per-sweep contraction kappa of the last
    two blocks' row errors sets the over-relaxed sweeps
    ``u <- u (a / (u K v))^omega``,
    ``v <- v (b / (v K^T u))^omega`` with
    ``omega = min(OMEGA_MAX, 2 / (1 + sqrt(1 - kappa)))`` when
    0.5 < kappa < 1.  A block whose row error rises, or after which the
    kernel is rebuilt, returns to plain sweeps and restarts the count.
    ``eps log u`` and ``eps log v`` are folded into ``f`` and ``g`` at three
    points only, which gives the same iterates as log-sum-exp sweeps:
    (a) at the end of the stage; (b) after a block whose scalings leave
    ``SCALING_RANGE``, if the stage goes on, which then rebuilds the kernel
    and restarts from ``u = v = 1``; (c) before a block whose scalings come back zero or
    non-finite (the kernel underflowed after a large drop in eps), which is
    then rerun with log-sum-exp sweeps.  A stage ends after the block at
    which the L1 error of the plan's row marginal meets the stage's target,
    or once ``MAX_STAGE_SWEEPS`` sweeps have run.  The first target is
    ``MARGINAL_TOL``; after a stage whose certificate fails with duality
    gap G at cost c, the next target is ``GAP_EXIT_RATIO * G / c`` clipped
    to ``[MARGINAL_TOL, MARGINAL_TOL_MAX]``, since a plan that far from
    optimal gains little from tighter marginals.  At the end of every stage
    the plan ``u[:, None] * K * v[None, :]`` is rounded onto the
    feasibility polytope (in factored form, by :func:`_rounded_cost`), so
    the reported value is the cost of a feasible plan and therefore an
    upper bound on the exact cost; the annealing
    stops as soon as the gap against the c-transform dual value certifies
    relative accuracy ``rtol``, and raises :class:`ConvergenceError` if no
    stage does.  Neither the relaxation nor the marginal targets can change
    what is returned, only how many sweeps a stage takes: the value is
    always a rounded feasible plan's cost, and only the certificate accepts
    it.  The error estimate is that duality gap (in distance units).  An
    ``rtol`` that is not a finite number >= 0 raises
    :class:`PreconditionError` before any sweep.
    """
    _require_exponent(q, "cost exponent q", 1.0)
    _require_exponent(rtol, "relative accuracy rtol", 0.0)
    if len(a) < 1 or len(b) < 1:
        raise PreconditionError("atom sets must be non-empty")
    C = _cost_matrix(a, b, q)
    scale = float(C.max())
    if scale == 0.0:
        return DistanceResult(0.0, "entropic-ot", 0.0)
    Cn = C / scale
    n, m = len(a), len(b)
    ma, mb = a.masses, b.masses
    la, lb = np.log(ma), np.log(mb)
    f, g = np.zeros(n), np.zeros(m)
    # the scalings u, v are the two halves of one buffer, and so are the
    # next block's, so one min and one max check both
    uv, uv_next = np.ones(n + m), np.empty(n + m)
    u, v = uv[:n], uv[n:]
    out = (uv_next[:n], uv_next[n:], np.empty(n), np.empty(m))

    atol = 1e-15 * scale
    lo, hi = SCALING_RANGE
    target = MARGINAL_TOL
    with np.errstate(all="ignore"):
        for eps in DEFAULT_REG_SCHEDULE:
            kernel = None  # None: f and g hold every scaling so far
            omega, errs, last, rebuild = 1.0, [], math.inf, False
            for done in range(0, MAX_STAGE_SWEEPS, MARGINAL_CHECK_EVERY):
                sweeps = min(MARGINAL_CHECK_EVERY, MAX_STAGE_SWEEPS - done)
                if rebuild:
                    # (b) the last block's scalings left SCALING_RANGE: fold
                    # them before they lose precision
                    f, g = f + eps * np.log(u), g + eps * np.log(v)
                    kernel = None
                if kernel is None:
                    K = _kernel(f, g, Cn, eps)
                    kernel = K, np.ascontiguousarray(K.T)
                    uv.fill(1.0)
                _, _, rows = _scaling_block(kernel, u, v, ma, mb, sweeps, omega, out)
                low, high = uv_next.min(), uv_next.max()
                guard = not (0.0 < low and high < math.inf)
                if guard:
                    # (c) the kernel under- or overflowed (a large drop in
                    # eps): fold the scalings from before the block and redo
                    # it in the log domain; its final kernel is the next
                    # block's
                    f, g = f + eps * np.log(u), g + eps * np.log(v)
                    for _ in range(sweeps):
                        fs = eps * (la - _logsumexp_rows((g[None, :] - Cn) / eps))
                        f = (1.0 - omega) * f + omega * fs
                        gs = eps * (lb - _logsumexp_rows((f[None, :] - Cn.T) / eps))
                        g = (1.0 - omega) * g + omega * gs
                    K = _kernel(f, g, Cn, eps)
                    kernel = K, np.ascontiguousarray(K.T)
                    uv.fill(1.0)
                    rows = K.sum(axis=1)
                    rebuild = False
                else:
                    # the block's scalings become the current ones
                    uv, uv_next = uv_next, uv
                    u, v = uv[:n], uv[n:]
                    out = (uv_next[:n], uv_next[n:]) + out[2:]
                    rebuild = not (lo <= low and high <= hi)
                err = float(np.abs(rows - ma).sum())
                if guard or rebuild or err > last:
                    omega, errs = 1.0, []
                elif omega == 1.0:
                    errs.append(err)
                    omega = _relax_omega(errs)
                last = err
                if err <= target:
                    break
            # (a) the stage end
            cost = _rounded_cost(kernel, u, v, rows, ma, mb, C)
            f, g = f + eps * np.log(u), g + eps * np.log(v)
            gap = cost - max(_dual_value(C, f * scale, a, b), 0.0)
            if gap <= rtol * cost + atol:
                return _gap_distance(cost, gap, q, "entropic-ot")
            target = min(
                MARGINAL_TOL_MAX, max(MARGINAL_TOL, GAP_EXIT_RATIO * gap / cost)
            )
    raise ConvergenceError(
        f"entropic solver left a duality gap of {gap!r} (relative "
        f"{gap / cost:.1e}, target {rtol:.1e} relative) after the full schedule"
    )


# ---------------------------------------------------------------------------
# Fortet-Mourier surrogate
# ---------------------------------------------------------------------------

def fm_upper(a, b) -> DistanceResult:
    """Certified upper bound min(2, W_1) for the bounded-Lipschitz
    (Fortet-Mourier) distance between two atom sets or two 1-D mixtures.

    The test class has sup-norm at most 1, which caps the distance at 2;
    the Lipschitz bound gives W_1.  Mixtures use the exact CDF
    representation of W_1; atom sets use the exact discrete solver, so in
    d > 1 they must be two sets of n atoms of equal mass (see
    :func:`ot_exact`).
    """
    if isinstance(a, AtomSet) and isinstance(b, AtomSet):
        res, _ = ot_exact(a, b, q=1.0)
    else:
        _require_mixtures(a, b)
        res = _w1_cdf_1d(a, b)
    if res.value >= 2.0:
        return DistanceResult(2.0, res.method, 0.0)
    return DistanceResult(min(res.value, 2.0), res.method, res.err)
