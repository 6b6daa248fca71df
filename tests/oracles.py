"""Independent oracles used to freeze or cross-check expected values.

Everything here deliberately avoids the package's own code paths: moments by
adaptive quadrature, distances by dense quadrature over scipy densities,
discrete transport by exhaustive enumeration or by assignment.
"""

import itertools
import math

import numpy as np
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
