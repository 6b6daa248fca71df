"""Probability metrics: weighted total variation, total variation mass,
q-Wasserstein distances and a Fortet-Mourier upper bound.

Density-based distances (rho_p, tv) are computed by grid quadrature with a
Richardson-style refinement difference as the error estimate.  Wasserstein
distances come in three flavors: the one-dimensional quantile representation
(Gauss-Hermite quadrature after the normal substitution), an exact discrete
solver (sorting in one dimension, an assignment between equal-size sets of
equal masses, an LP otherwise), and an annealed Sinkhorn solver
whose reported value is always the cost of a rounded feasible plan, hence an
upper bound on the exact cost.  Its sweeps run in blocks as scalings of a
kernel built from log potentials, which absorb the scalings at the end of
every block; a block whose kernel under- or overflows reruns in the log
domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import ndtr

from .distributions import (
    AtomSet,
    GaussianMixture,
    GridDensity,
    SpaceGrid,
    common_grid,
    discretize,
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

# Largest cost matrix the exact solver will build.
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


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two atom sets; marginals verified to 1e-9."""

    row_marginal: AtomSet
    col_marginal: AtomSet
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.row_marginal), len(self.col_marginal)):
            raise PreconditionError("plan shape does not match marginals")
        if m.min() < -1e-12:
            raise PreconditionError("plan entries must be >= 0")
        if np.abs(m.sum(axis=1) - self.row_marginal.masses).max() > 1e-9:
            raise PreconditionError("row sums do not match the row marginal")
        if np.abs(m.sum(axis=0) - self.col_marginal.masses).max() > 1e-9:
            raise PreconditionError("column sums do not match the column marginal")
        m = np.maximum(m, 0.0)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _require_exponent(x: float, name: str, low: float, strict: bool = False):
    """Reject an exponent that is not a finite number >= ``low`` (> ``low``
    if ``strict``); every weight power and cost exponent goes through here."""
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = f"{'>' if strict else '>='} {low:g}"
        raise PreconditionError(f"{name} must be a finite number {bound}, got {x!r}")


# ---------------------------------------------------------------------------
# grid quadrature distances
# ---------------------------------------------------------------------------

def _weighted_l1(fa: GridDensity, fb: GridDensity, p: float) -> float:
    diff = np.abs(fa.values - fb.values)
    if p > 0:
        diff = diff * (1.0 + fa.grid.radii() ** p)
    return float(diff.sum() * fa.grid.cell_volume)


def _coarsen_value(fa: GridDensity, fb: GridDensity, p: float) -> float:
    """Same quadrature on the 2x coarser grid (block averages)."""
    grid = fa.grid
    shape = tuple(n // 2 for n in grid.shape)
    coarse = SpaceGrid(grid.lo, grid.hi, shape)

    def blocks(v):
        for ax in range(v.ndim):
            n = v.shape[ax]
            v = v.reshape(v.shape[:ax] + (n // 2, 2) + v.shape[ax + 1:]).mean(
                axis=ax + 1
            )
        return v

    diff = np.abs(blocks(fa.values) - blocks(fb.values))
    if p > 0:
        diff = diff * (1.0 + coarse.radii() ** p)
    return float(diff.sum() * coarse.cell_volume)


MAX_REFINEMENTS = {1: 4, 2: 2, 3: 1}

# Refinement tolerance of the grid quadrature distances.
QUADRATURE_TOL = 1e-4


def refine_weighted_l1(densities, powers, tol: float, max_refinements: int) -> tuple:
    """One refinement ladder for several weight powers of one pair.

    ``densities(level)`` returns the pair's grid densities on the base grid
    refined ``level`` times (doubling every axis each time).  Each power's
    value is the weighted L1 difference at the first level whose change
    against the level below is at most ``tol``, with that change as its
    error, so the result for a power does not depend on the other powers.
    The ladder stops once every power has resolved and returns one
    :class:`DistanceResult` per power, in order.
    """
    fa, fb = densities(0)
    values = [_weighted_l1(fa, fb, p) for p in powers]
    results = [None] * len(powers)
    err = math.inf
    for level in range(1, max_refinements + 1):
        fa, fb = densities(level)
        for i, p in enumerate(powers):
            if results[i] is None:
                value = _weighted_l1(fa, fb, p)
                err = abs(value - values[i])
                values[i] = value
                if err <= tol:
                    results[i] = DistanceResult(value, "grid-quadrature", err)
        if all(r is not None for r in results):
            return tuple(results)
    raise NumericalError(
        f"quadrature did not reach tol {tol:.3e} (last estimate {err:.3e}); "
        "the pair is unresolvable at the allowed resolutions"
    )


def rho_p(a, b, p: float, grid: SpaceGrid | None = None) -> DistanceResult:
    """Weighted total variation int (1 + |x|^p) |f_a - f_b| dx for p > 0.

    The zero-power weight is the constant 1, so rho_p(a, b, 0) equals the
    total variation mass int |f_a - f_b| dx (twice the usual TV probability
    metric).  Mixture inputs are discretized on a shared sigma-box grid and
    refined until the refinement difference drops below ``QUADRATURE_TOL``,
    through :func:`refine_weighted_l1`, the ladder that
    :class:`tvrates.bounds.PairEvaluation` runs once for rho_p and tv
    together on its laws' kept densities, so both paths give the same bits.
    Grid inputs cannot be refined, so their error estimate comes from
    coarsening and ``QUADRATURE_TOL`` is enforced as-is.
    """
    _require_exponent(p, "weight power p", 0.0)
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        if a.grid != b.grid:
            raise PreconditionError("grid densities must share one grid")
        value = _weighted_l1(a, b, p)
        err = abs(value - _coarsen_value(a, b, p))
        if err > QUADRATURE_TOL:
            raise NumericalError(
                f"grid quadrature error estimate {err:.3e} exceeds tol "
                f"{QUADRATURE_TOL:.3e}"
            )
        return DistanceResult(value, "grid-quadrature", err)
    if not (isinstance(a, GaussianMixture) and isinstance(b, GaussianMixture)):
        raise PreconditionError("inputs must both be mixtures or both be grid densities")
    g = grid if grid is not None else common_grid(a, b)
    if g.d not in MAX_REFINEMENTS:
        raise PreconditionError("mixture quadrature needs dimension <= 3")
    box = np.stack([g.lo, g.hi], axis=1)

    def densities(level):
        shape = g.refined(2**level).shape
        return discretize(a, box, shape), discretize(b, box, shape)

    return refine_weighted_l1(
        densities, (p,), QUADRATURE_TOL, MAX_REFINEMENTS[g.d]
    )[0]


def tv_mass(a, b, grid: SpaceGrid | None = None) -> DistanceResult:
    """Total variation mass int |f_a - f_b| dx."""
    return rho_p(a, b, 0.0, grid=grid)


# ---------------------------------------------------------------------------
# one-dimensional Wasserstein
# ---------------------------------------------------------------------------

def _grid_quantile(f: GridDensity, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a one-dimensional grid density (piecewise-constant
    density, hence piecewise-linear CDF)."""
    h = float(f.grid.spacings[0])
    masses = f.values * h
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum /= cum[-1]
    edges = f.grid.lo[0] + np.arange(f.grid.shape[0] + 1) * h
    idx = np.clip(np.searchsorted(cum, u, side="left"), 1, len(cum) - 1)
    seg = np.maximum(cum[idx] - cum[idx - 1], 1e-300)
    return edges[idx - 1] + (u - cum[idx - 1]) / seg * h


def _quantile_fn(obj):
    if isinstance(obj, GaussianMixture):
        obj._require_1d()
        return obj.quantile
    if isinstance(obj, GridDensity):
        if obj.d != 1:
            raise PreconditionError("quantile quadrature requires dimension one")
        return lambda u: _grid_quantile(obj, u)
    raise PreconditionError("expected a GaussianMixture or 1-D GridDensity")


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
    :func:`quantile_distance` reads both laws' quantile functions."""
    return _normal_rule(n_nodes)[0]


def _quantile_wq(xa, xb, q: float, n_nodes: int) -> float:
    # int_0^1 |Qa - Qb|^q du with u = Phi(t): Gauss-Hermite after t = sqrt(2) s
    w = _normal_rule(n_nodes)[1]
    g = np.abs(xa - xb) ** q
    return float(np.sum(w * g) / math.sqrt(math.pi)) ** (1.0 / q)


# Order of the Gauss-Hermite rule that W_q quadrature checks against the
# rule of twice its order.
QUANTILE_NODES = 128


def quantile_distance(quantiles, q: float) -> DistanceResult:
    """W_q from quantile values: ``quantiles(n)`` returns both laws'
    quantiles at ``normal_levels(n)``; the rule of order ``QUANTILE_NODES``
    is checked against the doubled one, which gives the value."""
    n = QUANTILE_NODES
    v1 = _quantile_wq(*quantiles(n), q, n)
    v2 = _quantile_wq(*quantiles(2 * n), q, 2 * n)
    return DistanceResult(v2, "quantile-quadrature", abs(v2 - v1))


def wasserstein_1d(a, b, q: float) -> DistanceResult:
    """W_q via the quantile representation, for q > 1 in dimension one.

    The unit-interval integral is computed under the normal substitution
    u = Phi(t) on a Gauss-Hermite rule, which removes the inverse-CDF blowup
    at the endpoints; the error estimate comes from doubling the order.
    q <= 1 is rejected: the certificate machinery requires q > 1 (use
    :func:`ot_exact` for discrete W_1).
    """
    _require_exponent(q, "quantile quadrature exponent q", 1.0, strict=True)
    qa, qb = _quantile_fn(a), _quantile_fn(b)

    def quantiles(n):
        u = normal_levels(n)
        return qa(u), qb(u)

    return quantile_distance(quantiles, q)


def _w1_cdf_1d(a, b, n: int = 16384) -> DistanceResult:
    """W_1 = int |F_a - F_b| dx for one-dimensional inputs, by grid sums."""

    def cdf_on(xs, obj):
        if isinstance(obj, GaussianMixture):
            return obj.cdf(xs)
        h = float(obj.grid.spacings[0])
        cum = np.cumsum(obj.values) * h
        cum /= cum[-1]
        edges = obj.grid.lo[0] + (np.arange(obj.grid.shape[0]) + 1) * h
        idx = np.searchsorted(edges, xs, side="left")
        out = np.where(idx == 0, 0.0, cum[np.maximum(idx - 1, 0)])
        return np.where(idx >= len(cum), 1.0, out)

    lo, hi = [], []
    for obj in (a, b):
        if isinstance(obj, GaussianMixture):
            obj._require_1d()
            s = np.sqrt(obj.covs[:, 0, 0])
            lo.append(float(np.min(obj.means[:, 0] - 12 * s)))
            hi.append(float(np.max(obj.means[:, 0] + 12 * s)))
        else:
            lo.append(obj.grid.lo[0])
            hi.append(obj.grid.hi[0])
    left, right = min(lo), max(hi)

    def value(m):
        xs = np.linspace(left, right, m)
        return float(
            np.trapezoid(np.abs(cdf_on(xs, a) - cdf_on(xs, b)), xs)
        )

    v1, v2 = value(n), value(2 * n)
    return DistanceResult(v2, "grid-quadrature", abs(v2 - v1))


# ---------------------------------------------------------------------------
# discrete optimal transport
# ---------------------------------------------------------------------------

def _cost_matrix(a: AtomSet, b: AtomSet, q: float) -> np.ndarray:
    if a.d != b.d:
        raise PreconditionError("atom sets have different dimensions")
    diff = a.locations[:, None, :] - b.locations[None, :, :]
    with np.errstate(over="ignore"):
        C = np.linalg.norm(diff, axis=-1) ** q
    if not math.isfinite(C.max()):
        raise PreconditionError(
            f"cost |x - y|^q leaves the float range at cost exponent q = {q!r}"
        )
    return C


def _dual_value(C: np.ndarray, u: np.ndarray, a: AtomSet, b: AtomSet) -> float:
    """Value ``a.u + b.v`` of the dual pair made of the row potentials ``u``
    and their c-transform ``v = min_i (C[i, :] - u[i])`` on the columns,
    feasible by construction."""
    v = np.min(C - u[:, None], axis=0)
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
    plan = np.zeros((len(a), len(b)))
    np.add.at(plan, (rows, cols), pieces)
    return cost, plan, 0.0


def _marginal_constraints(n: int, m: int) -> scipy.sparse.csc_matrix:
    """Row-sum and column-sum constraints of an n x m plan flattened row
    by row: column ``i*m + j`` has ones in rows ``i`` and ``n + j``.  The
    int32 indices hold every size within ``OT_SIZE_LIMIT``."""
    i, j = np.divmod(np.arange(n * m, dtype=np.int32), m)
    indices = np.column_stack([i, n + j]).ravel()
    indptr = np.arange(0, 2 * n * m + 1, 2, dtype=np.int32)
    return scipy.sparse.csc_matrix(
        (np.ones(2 * n * m), indices, indptr), shape=(n + m, n * m)
    )


def _ot_lp(a: AtomSet, b: AtomSet, q: float):
    """Transportation LP (HiGHS) with its duality gap, both in cost units.

    The dual pair is HiGHS's multipliers of the row-sum constraints and
    their c-transform on the columns, feasible by construction, so the gap
    bounds the plan's excess cost over the optimum.
    """
    n, m = len(a), len(b)
    C = _cost_matrix(a, b, q)
    A_eq = _marginal_constraints(n, m)
    b_eq = np.concatenate([a.masses, b.masses])
    method = "highs" if n * m <= 40_000 else "highs-ipm"
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method=method)
    if res.status != 0:
        raise NumericalError(f"LP solver failed: {res.message}")
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    cost = float(np.sum(plan * C))
    u = res.eqlin.marginals[:n]
    return cost, plan, max(cost - _dual_value(C, u, a, b), 0.0)


def _ot_assignment(a: AtomSet, b: AtomSet, q: float):
    """Transport between n atoms of mass w on each side as an assignment,
    with its duality gap, both in cost units.

    The vertices of this transportation polytope are w times permutation
    matrices (Birkhoff-von Neumann), so an optimal matching sigma
    (``linear_sum_assignment``) is an optimal plan.  The row potentials are
    minus the shortest-path distances of its reassignment graph, whose edge
    i -> k costs C[i, sigma(k)] - C[k, sigma(k)], from at most n rounds of
    Bellman-Ford; the columns take their c-transform, as in :func:`_ot_lp`,
    so the dual is feasible wherever the rounds stop.
    """
    C = _cost_matrix(a, b, q)
    rows, cols = linear_sum_assignment(C)
    plan = np.zeros_like(C)
    plan[rows, cols] = a.masses
    cost = float(np.sum(plan * C))
    matched = C[:, cols]
    edges = matched - np.diag(matched)[None, :]
    dist = np.zeros(len(a))
    for _ in range(len(a)):
        # edges[k, k] = 0, so the minimum over i never exceeds dist[k]
        relaxed = np.min(dist[:, None] + edges, axis=0)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return cost, plan, max(cost - _dual_value(C, -dist, a, b), 0.0)


def ot_exact(a: AtomSet, b: AtomSet, q: float = 2.0):
    """Exact optimal transport for cost |x - y|^q, q >= 1.

    In dimension one the plan is the north-west-corner rule on the stably
    sorted supports (the monotone coupling), exact for any masses and sizes
    in O((n + m) log(n + m)); ``err`` is 0.  In higher dimensions, two sets
    of n atoms whose masses are all equal are matched as an assignment
    problem (``linear_sum_assignment``), and every other pair goes to the
    transportation LP (HiGHS): small instances use the simplex, large ones
    the interior-point method with crossover.  Both report as ``err`` the
    duality gap against a feasible dual, in distance units.  Returns
    ``(DistanceResult, TransportPlan)`` with the distance
    ``W_q = cost^{1/q}`` and the plan in the callers' atom order.
    """
    _require_exponent(q, "cost exponent q", 1.0)
    if a.d != b.d:
        raise PreconditionError("atom sets have different dimensions")
    n, m = len(a), len(b)
    if n * m > OT_SIZE_LIMIT:
        raise PreconditionError(
            f"cost matrix size {n * m} exceeds the limit {OT_SIZE_LIMIT}"
        )
    w = a.masses[0]
    if a.d == 1:
        solve = _ot_sorted_1d
    elif n == m and np.all(a.masses == w) and np.all(b.masses == w):
        solve = _ot_assignment
    else:
        solve = _ot_lp
    cost, plan, gap = solve(a, b, q)
    return _gap_distance(cost, gap, q, "exact-ot"), TransportPlan(a, b, plan)


# Annealing schedule, relative to the cost maximum.  The deep tail costs
# nothing for generic pairs (the duality-gap exit fires early) but lets
# near-identical pairs reach an essentially exact plan.
DEFAULT_REG_SCHEDULE = tuple(0.3 * 0.5**k for k in range(44))

# An annealing stage ends once the L1 error of its plan's row marginal (the
# columns are exact after every sweep) is at most MARGINAL_TOL, checked every
# MARGINAL_CHECK_EVERY sweeps.  The exit only saves sweeps: whether the solver
# returns is decided by the duality-gap certificate alone.
MARGINAL_TOL = 1e-3
MARGINAL_CHECK_EVERY = 10

# Cap on the sweeps of one annealing stage.
MAX_STAGE_SWEEPS = 800


def _logsumexp_rows(M):
    top = M.max(axis=1, keepdims=True)
    out = top + np.log(np.sum(np.exp(M - top), axis=1, keepdims=True))
    return out.ravel()


def _scaling_block(K, v, ma, mb, n):
    """``n`` Sinkhorn sweeps ``u = ma / (K v)``, ``v = mb / (K^T u)`` on the
    kernel ``K`` from the column scaling ``v``; returns ``(u, v)``, whose
    plan is ``u[:, None] * K * v[None, :]``."""
    for _ in range(n):
        u = ma / (K @ v)
        v = mb / (K.T @ u)
    return u, v


def _round_to_feasible(plan, ma, mb):
    """Project a nearly feasible plan onto the transport polytope: scale rows
    and columns down to their marginals, then add a rank-one correction."""
    r = np.minimum(1.0, ma / np.maximum(plan.sum(axis=1), 1e-300))
    plan = plan * r[:, None]
    c = np.minimum(1.0, mb / np.maximum(plan.sum(axis=0), 1e-300))
    plan = plan * c[None, :]
    ea = ma - plan.sum(axis=1)
    eb = mb - plan.sum(axis=0)
    gap = ea.sum()
    if gap > 1e-300:
        plan = plan + np.outer(ea, eb) / gap
    return plan


def ot_entropic(
    a: AtomSet,
    b: AtomSet,
    q: float = 2.0,
    reg_schedule=None,
    rtol: float = 5e-3,
):
    """Entropically regularized optimal transport with schedule annealing.

    ``reg_schedule`` lists decreasing regularization weights relative to the
    cost-matrix maximum, ending at the target epsilon.  The log potentials
    ``f``, ``g`` warm-start each stage from the last.  Each stage sweeps in
    blocks of ``MARGINAL_CHECK_EVERY``: a block runs the scaling updates
    ``u = a / (K v)``, ``v = b / (K^T u)`` on the kernel
    ``K = exp((f + g - C / max C) / eps)`` of the current potentials, then
    folds ``eps log u`` and ``eps log v`` into ``f`` and ``g``, the same
    iterates as log-sum-exp sweeps.  A block whose scalings come back zero or
    non-finite (the kernel underflowed after a large drop in eps) is rerun
    with log-sum-exp sweeps.  A stage ends after the block at which the L1
    error of the plan's row marginal is at most ``MARGINAL_TOL``, or once
    ``MAX_STAGE_SWEEPS`` sweeps have run.  At the end of every stage the plan
    is rounded onto the feasibility polytope, so the reported value is the
    cost of a feasible plan and therefore an upper bound on the exact cost;
    the annealing stops as soon as the gap against the c-transform dual value
    certifies relative accuracy ``rtol``, and raises :class:`ConvergenceError`
    if no stage does.  The error estimate is that duality gap (in distance
    units).
    """
    _require_exponent(q, "cost exponent q", 1.0)
    if len(a) < 1 or len(b) < 1:
        raise PreconditionError("atom sets must be non-empty")
    schedule = DEFAULT_REG_SCHEDULE if reg_schedule is None else tuple(reg_schedule)
    if any(e <= 0 for e in schedule) or any(
        e2 >= e1 for e1, e2 in zip(schedule, schedule[1:])
    ):
        raise PreconditionError("regularization schedule must be positive, decreasing")
    C = _cost_matrix(a, b, q)
    scale = float(C.max())
    if scale == 0.0:
        return DistanceResult(0.0, "entropic-ot", 0.0)
    Cn = C / scale
    la = np.log(a.masses)
    lb = np.log(b.masses)
    f = np.zeros(len(a))
    g = np.zeros(len(b))

    atol = 1e-15 * scale
    for eps in schedule:
        for done in range(0, MAX_STAGE_SWEEPS, MARGINAL_CHECK_EVERY):
            sweeps = min(MARGINAL_CHECK_EVERY, MAX_STAGE_SWEEPS - done)
            with np.errstate(all="ignore"):
                K = np.exp((f[:, None] + g[None, :] - Cn) / eps)
                u, v = _scaling_block(K, np.ones(len(b)), a.masses, b.masses, sweeps)
                rows = u * (K @ v)
                df, dg = eps * np.log(u), eps * np.log(v)
                if np.isfinite(df).all() and np.isfinite(dg).all():
                    f, g = f + df, g + dg
                else:
                    # the kernel under- or overflowed (a large drop in eps):
                    # redo the block in the log domain
                    for _ in range(sweeps):
                        f = eps * (la - _logsumexp_rows((g[None, :] - Cn) / eps))
                        g = eps * (lb - _logsumexp_rows((f[None, :] - Cn.T) / eps))
                    rows = np.exp((f[:, None] + g[None, :] - Cn) / eps).sum(axis=1)
            if np.abs(rows - a.masses).sum() <= MARGINAL_TOL:
                break
        plan = _round_to_feasible(
            np.exp((f[:, None] + g[None, :] - Cn) / eps), a.masses, b.masses
        )
        cost = float(np.sum(plan * C))
        gap = cost - max(_dual_value(C, f * scale, a, b), 0.0)
        if gap <= rtol * cost + atol:
            return _gap_distance(cost, gap, q, "entropic-ot")
    raise ConvergenceError(
        f"entropic solver left a duality gap of {gap!r} "
        f"(target {rtol:.1e} relative) after the full schedule"
    )


# ---------------------------------------------------------------------------
# Fortet-Mourier surrogate
# ---------------------------------------------------------------------------

def fm_upper(a, b) -> DistanceResult:
    """Certified upper bound min(2, W_1) for the bounded-Lipschitz
    (Fortet-Mourier) distance.

    The test class has sup-norm at most 1, which caps the distance at 2;
    the Lipschitz bound gives W_1.  One-dimensional laws use the exact CDF
    representation of W_1; atom sets use the exact discrete solver.
    """
    if isinstance(a, AtomSet) and isinstance(b, AtomSet):
        res, _ = ot_exact(a, b, q=1.0)
    else:
        res = _w1_cdf_1d(a, b)
    if res.value >= 2.0:
        return DistanceResult(2.0, res.method, 0.0)
    return DistanceResult(min(res.value, 2.0), res.method, res.err)
