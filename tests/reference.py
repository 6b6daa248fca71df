"""Independent reference implementations used to freeze or cross-check
expected values.

Everything here deliberately avoids the package's own code paths: moments by
adaptive quadrature, distances by dense quadrature over scipy densities,
discrete transport by exhaustive enumeration, by assignment or by the
transportation LP (the exact oracle for pairs the package's exact solver
does not take: unequal sizes or masses in d > 1).  The last section keeps
the earlier forms of kernels the package rewrote for speed: the plain
loops, the last-axis component sums, the one-component moment recursion,
the array-per-round Bellman-Ford and the ``np.add.at`` north-west
corner must agree with the fast code bit for bit, the log-domain Sinkhorn
to round-off with the same sweep count; the Kronecker-built LP constraints
serve :func:`ot_lp`.
"""

import itertools
import math

import numpy as np
import scipy.sparse
from numpy.polynomial.hermite_e import hermeval
from scipy import integrate
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import ndtr
from scipy.stats import norm


def mixture_pdf(weights, means, sds):
    weights = np.asarray(weights, float)
    means = np.asarray(means, float)
    sds = np.asarray(sds, float)

    def pdf(x):
        x = np.asarray(x, float)
        return np.sum(
            weights * norm.pdf((x[..., None] - means) / sds) / sds, axis=-1
        )

    return pdf


def mixture_derivative_hermeval(mix, x, alpha):
    """Order-``alpha`` derivative of a 1-D mixture density at ``x``, each
    component's Hermite polynomial He_alpha summed by ``hermeval``:
    sum_i w_i (-1)^alpha s_i^(-alpha-1) He_alpha(z_i) phi(z_i)."""
    coef = np.zeros(alpha + 1)
    coef[alpha] = 1.0
    total = np.zeros_like(x)
    for w, m, v in zip(mix.weights, mix.means[:, 0], mix.covs[:, 0, 0]):
        s = math.sqrt(v)
        z = (x - m) / s
        total += w * (-1) ** alpha * s ** (-alpha - 1) * hermeval(z, coef) * norm.pdf(z)
    return total


def quad_abs_moment(pdf, p, lo=-80.0, hi=80.0):
    val, _ = integrate.quad(
        lambda x: abs(x) ** p * pdf(np.array(x)), lo, hi, limit=500
    )
    return val


def quad_weighted_tv(pdf_a, pdf_b, p, lo=-80.0, hi=80.0, n=2**16):
    """Dense-grid quadrature of int (1+|x|^p)|f_a - f_b| dx (p = 0 means
    constant weight 1), the oracle used for rho_p and tv acceptance."""
    x = np.linspace(lo, hi, n)
    w = 1.0 + np.abs(x) ** p if p > 0 else np.ones_like(x)
    return np.trapezoid(w * np.abs(pdf_a(x) - pdf_b(x)), x)


def brute_force_ot_uniform(xa, xb, q):
    """Exact W_q for equal-count, uniform-mass atom sets by enumerating the
    transport polytope's vertices, which are the permutation matchings."""
    xa = np.asarray(xa, float)
    xb = np.asarray(xb, float)
    n = len(xa)
    best = math.inf
    cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=-1) ** q
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i, perm[i]] for i in range(n)) / n
        best = min(best, c)
    return best ** (1.0 / q)


def assignment_cost(xa, xb, q):
    """Optimal cost (W_q^q) between equal-count, uniform-mass atom sets: a
    permutation matching, found by the Hungarian method."""
    cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=-1) ** q
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def ot_lp(a, b, q):
    """Transportation LP (HiGHS) between two atom sets for cost |x - y|^q,
    with its duality gap.  Returns ``(cost, plan, gap)``, cost and gap in
    cost units.

    The dual pair is HiGHS's multipliers of the row-sum constraints and
    their c-transform on the columns, feasible by construction, so the gap
    bounds the plan's excess cost over the optimum.  Small instances use the
    simplex, large ones the interior-point method with crossover.
    """
    n, m = len(a), len(b)
    C = np.linalg.norm(a.locations[:, None, :] - b.locations[None, :, :], axis=-1) ** q
    A_eq = marginal_constraints_kron(n, m)
    b_eq = np.concatenate([a.masses, b.masses])
    method = "highs" if n * m <= 40_000 else "highs-ipm"
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method=method)
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    plan = np.maximum(res.x.reshape(n, m), 0.0)
    cost = float(np.sum(plan * C))
    u = res.eqlin.marginals[:n]
    v = (C - u[:, None]).min(axis=0)
    return cost, plan, max(cost - float(a.masses @ u + b.masses @ v), 0.0)


def mc_pair_moment(fn, n=10**6, seed=12345):
    """Monte-Carlo E[fn(|X|, |Y|)] for independent standard normals."""
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_normal(n))
    y = np.abs(rng.standard_normal(n))
    return float(np.mean(fn(x, y)))


def gauss_power_moment(mu, var, p):
    """E Z^p for a scalar Gaussian Z with (complex) mean mu and variance
    var: sum_k C(p, 2k) (2k-1)!! var^k mu^{p-2k}."""
    out = np.zeros_like(mu, dtype=complex)
    for k in range(p // 2 + 1):
        double_factorial = math.prod(range(2 * k - 1, 0, -2))
        out += math.comb(p, 2 * k) * double_factorial * var**k * mu ** (p - 2 * k)
    return out


def delta_p_char_closed_form(mix, p, grid):
    """``d^p phi / du^p`` of a Gaussian mixture on the dual grid of
    ``grid``, by differentiating each component's characteristic function:
    i^p phi_c(u) E Z^p with Z of mean m + i v u and variance v."""
    u = grid.freqs()
    total = np.zeros(grid.n, dtype=complex)
    for w, m, v in zip(mix.weights, mix.means[:, 0], mix.covs[:, 0, 0]):
        phi_c = np.exp(1j * u * m - 0.5 * v * u * u)
        total += w * phi_c * gauss_power_moment(m + 1j * v * u, v, p)
    return (1j) ** p * total


# ---------------------------------------------------------------------------
# reference implementations of rewritten kernels
# ---------------------------------------------------------------------------

def norm_sq_moment_loop(mu, cov, k):
    """E (|X|^2)^k for X ~ N(mu, cov) by the cumulant recursion, each m_n a
    builtin left-to-right sum of C(n-1, i) kappa_{n-i} m_i."""
    if k == 0:
        return 1.0
    kappa = np.empty(k + 1)
    power = np.eye(len(mu))
    for j in range(1, k + 1):
        kappa[j] = (
            2.0 ** (j - 1)
            * math.factorial(j - 1)
            * (np.trace(power @ cov) + j * float(mu @ power @ mu))
        )
        power = power @ cov
    m = np.empty(k + 1)
    m[0] = 1.0
    for n in range(1, k + 1):
        m[n] = sum(math.comb(n - 1, i) * kappa[n - i] * m[i] for i in range(n))
    return float(m[k])


def norm_sq_moment_scalar(m, v, k):
    """E X^{2k} for X ~ N(m, v) by the cumulant recursion on one component,
    the form ``_norm_sq_moment`` had before it ran over arrays of
    components: successive powers v^j, quadratic terms ``(m v^{j-1}) m``
    and each m_n an ``np.add.accumulate`` left-to-right sum."""
    if k == 0:
        return 1.0
    powers = np.empty(k + 1)
    powers[0] = 1.0
    np.multiply.accumulate(np.full(k, v), out=powers[1:])
    quad = m * powers[:-1] * m
    scales = np.array([2.0 ** (j - 1) * math.factorial(j - 1) for j in range(1, k + 1)])
    kappa = np.empty(k + 1)
    kappa[1:] = scales * (powers[1:] + np.arange(1, k + 1) * quad)
    out = np.empty(k + 1)
    out[0] = 1.0
    for n in range(1, k + 1):
        binomials = np.array([float(math.comb(n - 1, i)) for i in range(n)])
        out[n] = np.add.accumulate(binomials * kappa[n:0:-1] * out[:n])[-1]
    return float(out[k])


def poly_table_loop(stacks, radii, K, L, floor, log_max):
    """Polynomial envelope table from a derivative stack (one magnitude
    array per order), one masked maximum of log|g| + l log(1 + radius) per
    (k, l)."""
    log_weight = np.log1p(radii)
    table = np.zeros((K + 1, L + 1))
    for k in range(K + 1):
        mag = stacks[k]
        top = mag.max()
        if top == 0.0:
            continue
        for l in range(L + 1):
            mask = mag >= top * floor
            v = (np.log(mag[mask]) + l * log_weight[mask]).max()
            table[k, l] = math.inf if v > log_max else math.exp(v)
    return table


def mixture_pdf_last_axis(law, x):
    """Density of a 1-D mixture with its components summed by ``np.sum``
    over a last (component) axis: the form ``GaussianMixture.pdf`` had
    before it added component-major rows left to right."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(law.covs[:, 0, 0])
    log_norm = -0.5 * math.log(2.0 * math.pi) - np.log(s)
    z = (x[..., None] - law.means[:, 0]) * (1.0 / s)
    return np.sum(law.weights * np.exp(-0.5 * (z * z) + log_norm), axis=-1)


def mixture_cdf_last_axis(law, x):
    """CDF of a 1-D mixture summed as in :func:`mixture_pdf_last_axis`."""
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - law.means[:, 0]) / np.sqrt(law.covs[:, 0, 0])
    return np.sum(law.weights * ndtr(z), axis=-1)


def quantile_bisection(law, u, cdf=None):
    """Inverse CDF of a 1-D mixture by bisection on ``cdf`` (``law.cdf``
    unless given) with ``np.where`` updates, from the same bracket and
    stopping test."""
    cdf = law.cdf if cdf is None else cdf
    levels = u * float(law.weights.sum())
    s = np.sqrt(law.covs[:, 0, 0])
    lo = float(np.min(law.means[:, 0] - 10.0 * s))
    hi = float(np.max(law.means[:, 0] + 10.0 * s))
    while cdf(lo) >= levels.min():
        lo -= hi - lo
    while cdf(hi) <= levels.max() < cdf(np.inf):
        hi += hi - lo
    a = np.full(u.shape, lo)
    b = np.full(u.shape, hi)
    for _ in range(200):
        mid = 0.5 * (a + b)
        below = cdf(mid) < levels
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        if np.max(b - a) < 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (a + b)


def sinkhorn_log_domain(a, b, q=2.0, reg_schedule=None, max_iter=800, rtol=5e-3):
    """Annealed Sinkhorn with every half sweep a row-wise log-sum-exp, the
    form ``ot_entropic`` took before its sweeps became kernel scalings, with
    the same schedule, over-relaxation, stage exits, rounding and
    duality-gap certificate.

    A relaxed half sweep is ``f <- (1 - omega) f + omega f_sinkhorn``.
    After three plain 10-sweep blocks, the contraction of the last two
    blocks' row errors sets ``omega = min(1.9, 2 / (1 + sqrt(1 - kappa)))``
    for 0.5 < kappa < 1.  Sweeps fall back to plain, and the error history
    restarts, after a block whose row error rises, or whose potentials left
    ``[log 1e-8, log 1e8] * eps`` around those at the stage start or the
    last restart (where ``ot_entropic`` rebuilds its kernel).  A stage ends
    at row error 1e-3, or at ``0.01 G / c`` clipped to [1e-3, 1e-2] after a
    stage whose certificate failed with gap G at cost c.

    Returns ``(certified, cost, gap, sweeps)``: whether a stage met the
    certificate, the rounded plan's cost and its gap (both in cost units) at
    the stage that stopped the annealing, and the sweeps run in all stages.
    """
    schedule = (
        tuple(0.3 * 0.5**k for k in range(44))
        if reg_schedule is None
        else tuple(reg_schedule)
    )
    ma, mb = a.masses, b.masses
    C = np.linalg.norm(a.locations[:, None, :] - b.locations[None, :, :], axis=-1) ** q
    scale = float(C.max())
    Cn = C / scale
    la, lb = np.log(ma), np.log(mb)
    f, g = np.zeros(len(ma)), np.zeros(len(mb))
    span = math.log(1e8)

    def lse_rows(M):
        top = M.max(axis=1, keepdims=True)
        return (top + np.log(np.sum(np.exp(M - top), axis=1, keepdims=True))).ravel()

    sweeps = 0
    target = 1e-3
    for eps in schedule:
        f0, g0 = f, g
        omega, errs, last = 1.0, [], math.inf
        for it in range(1, max_iter + 1):
            fs = eps * (la - lse_rows((g[None, :] - Cn) / eps))
            f = (1 - omega) * f + omega * fs
            gs = eps * (lb - lse_rows((f[None, :] - Cn.T) / eps))
            g = (1 - omega) * g + omega * gs
            sweeps += 1
            if it % 10 == 0:
                rows = np.exp((f[:, None] + g[None, :] - Cn) / eps).sum(axis=1)
                err = np.abs(rows - ma).sum()
                moved = max(np.abs(f - f0).max(), np.abs(g - g0).max()) / eps > span
                if moved or err > last:
                    omega, errs = 1.0, []
                    if moved:
                        f0, g0 = f, g
                elif omega == 1.0:
                    errs.append(err)
                    kappa = (errs[-1] / errs[-2]) ** 0.1 if len(errs) >= 3 else 0.0
                    if 0.5 < kappa < 1.0:
                        omega = min(1.9, 2.0 / (1.0 + math.sqrt(1.0 - kappa)))
                last = err
                if err <= target:
                    break
        plan = np.exp((f[:, None] + g[None, :] - Cn) / eps)
        r = np.minimum(1.0, ma / np.maximum(plan.sum(axis=1), 1e-300))
        plan = plan * r[:, None]
        c = np.minimum(1.0, mb / np.maximum(plan.sum(axis=0), 1e-300))
        plan = plan * c[None, :]
        ea = ma - plan.sum(axis=1)
        eb = mb - plan.sum(axis=0)
        if ea.sum() > 1e-300:
            plan = plan + np.outer(ea, eb) / ea.sum()
        cost = float(np.sum(plan * C))
        u = f * scale
        v = np.min(C - u[:, None], axis=0)
        gap = cost - max(float(ma @ u + mb @ v), 0.0)
        if gap <= rtol * cost + 1e-15 * scale:
            return True, cost, gap, sweeps
        target = min(1e-2, max(1e-3, 0.01 * gap / cost))
    return False, cost, gap, sweeps


def reassignment_distances_loop(C, cols):
    """Bellman-Ford distances of the reassignment graph of the matching
    ``cols`` (edge i -> k costs C[i, cols[k]] - C[k, cols[k]]), with a
    fresh array per round and ``np.array_equal`` as the stopping test."""
    matched = C[:, cols]
    edges = matched - np.diag(matched)[None, :]
    dist = np.zeros(len(cols))
    for _ in range(len(cols)):
        relaxed = np.min(dist[:, None] + edges, axis=0)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return dist


def north_west_corner_add_at(a, b, q):
    """The monotone coupling of two 1-D atom sets by the north-west-corner
    rule on their stably sorted supports, its pieces accumulated with
    ``np.add.at``.  Returns ``(cost, plan)``."""
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
    return cost, plan


def marginal_constraints_kron(n, m):
    """The transportation LP's equality constraints built from Kronecker
    products, as :func:`ot_lp` uses them: rows i < n sum plan row i, rows
    n + j sum plan column j."""
    rows = scipy.sparse.kron(scipy.sparse.eye(n), np.ones((1, m)))
    cols = scipy.sparse.kron(np.ones((1, n)), scipy.sparse.eye(m))
    return scipy.sparse.vstack([rows, cols]).tocsc()
