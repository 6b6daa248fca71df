"""Independent oracles used to freeze or cross-check expected values.

Everything here deliberately avoids the package's own code paths: moments by
adaptive quadrature, distances by dense quadrature over scipy densities,
discrete transport by exhaustive enumeration or by assignment.  The last
section keeps the earlier forms of kernels the package rewrote for speed:
the plain loops and the Kronecker-built LP constraints must agree with the
fast code bit for bit, the log-domain Sinkhorn to round-off with the same
sweep count.
"""

import itertools
import math

import numpy as np
import scipy.sparse
from scipy import integrate
from scipy.optimize import linear_sum_assignment
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
    """``sum_j d^p phi / du_j^p`` of a Gaussian mixture on the dual grid of
    ``grid``, by differentiating each component's characteristic function:
    i^p phi_c(u) sum_j E Z_j^p with Z_j of mean m_j + i (cov u)_j and
    variance cov_jj."""
    u = np.stack(grid.freq_mesh(), axis=-1)
    total = np.zeros(grid.shape, dtype=complex)
    for w, m, cov in zip(mix.weights, mix.means, mix.covs):
        quad = np.einsum("...i,ij,...j->...", u, cov, u)
        phi_c = np.exp(1j * (u @ m) - 0.5 * quad)
        su = u @ cov
        msum = sum(
            gauss_power_moment(m[j] + 1j * su[..., j], cov[j, j], p)
            for j in range(mix.d)
        )
        total += w * phi_c * msum
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


def poly_table_loop(stacks, radii, K, L, floor, log_max):
    """Polynomial envelope table from a derivative stack, one masked maximum
    of log|g| + l log(1 + radius) per (alpha, l)."""
    log_weight = np.log1p(radii)
    table = np.zeros((K + 1, L + 1))
    for k in range(K + 1):
        for _, mag in stacks[k]:
            top = mag.max()
            if top == 0.0:
                continue
            for l in range(L + 1):
                mask = mag >= top * floor
                v = (np.log(mag[mask]) + l * log_weight[mask]).max()
                if v > log_max:
                    table[k, l] = math.inf
                else:
                    table[k, l] = max(table[k, l], math.exp(v))
    return table


def quantile_bisection(law, u):
    """Inverse CDF of a 1-D mixture by bisection on ``law.cdf`` with
    ``np.where`` updates, from the same bracket and stopping test."""
    levels = u * float(law.weights.sum())
    s = np.sqrt(law.covs[:, 0, 0])
    lo = float(np.min(law.means[:, 0] - 10.0 * s))
    hi = float(np.max(law.means[:, 0] + 10.0 * s))
    while law.cdf(lo) >= levels.min():
        lo -= hi - lo
    while (top := law.cdf(hi)) <= levels.max() and top < float(law.weights.sum()):
        hi += hi - lo
    a = np.full(u.shape, lo)
    b = np.full(u.shape, hi)
    for _ in range(200):
        mid = 0.5 * (a + b)
        below = law.cdf(mid) < levels
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        if np.max(b - a) < 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (a + b)


def sinkhorn_log_domain(a, b, q=2.0, reg_schedule=None, max_iter=800, rtol=5e-3):
    """Annealed Sinkhorn with every half sweep a row-wise log-sum-exp, the
    form ``ot_entropic`` took before its sweeps became kernel scalings, with
    the same schedule, stage exit, rounding and duality-gap certificate.

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

    def lse_rows(M):
        top = M.max(axis=1, keepdims=True)
        return (top + np.log(np.sum(np.exp(M - top), axis=1, keepdims=True))).ravel()

    sweeps = 0
    for eps in schedule:
        for it in range(1, max_iter + 1):
            f = eps * (la - lse_rows((g[None, :] - Cn) / eps))
            g = eps * (lb - lse_rows((f[None, :] - Cn.T) / eps))
            sweeps += 1
            if it % 10 == 0:
                rows = np.exp((f[:, None] + g[None, :] - Cn) / eps).sum(axis=1)
                if np.abs(rows - ma).sum() <= 1e-3:
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
    return False, cost, gap, sweeps


def marginal_constraints_kron(n, m):
    """The transportation LP's equality constraints built from Kronecker
    products: rows i < n sum plan row i, rows n + j sum plan column j."""
    rows = scipy.sparse.kron(scipy.sparse.eye(n), np.ones((1, m)))
    cols = scipy.sparse.kron(np.ones((1, n)), scipy.sparse.eye(m))
    return scipy.sparse.vstack([rows, cols]).tocsc()
