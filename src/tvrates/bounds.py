"""Explicit-constant certificates bounding weighted total variation by
Wasserstein distance.

Two regimes are implemented, plus a pointwise variant:

* ``lemma1-poly``: under polynomial decay of the pair's characteristic
  functions (frequency-side envelope table b_{k,l}), the weighted total
  variation rho_p is bounded by ``(2 Cbar_{l,p} + Cbar_{l,0}) A^{theta_{l,p}}``
  where ``A`` is the measured W_q gap and every constant in the chain
  (gamma_l, C-ring, h_p, Chat, Cbar, theta) is evaluated and recorded.

* ``lemma2-exp``: under exponential decay (integrals of |phi^{(k)}| against
  e^{r_k |u|}) and an exponential moment bound, the rate improves to
  ``C * A |ln A|^{2d+1}``; the certificate assembles C by explicitly tracking
  the frequency truncation at ``M = 2|ln A|/r``, the Cauchy-Schwarz split of
  the tail, the incomplete-gamma tail bound, and the space truncation at
  ``M = s |ln A|/r``.  Rows outside the small-gap regime fall back to a
  trivially sound constant bound.

* ``pointwise``: sup-norm version for a fixed derivative multiindex.

All certificates are *empirical*: envelope constants are grid maxima, so a
certificate is strong evidence, not a proof, and carries that provenance tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import GaussianMixture, SpaceGrid, common_grid, discretize
from .errors import PreconditionError
from .spectral import (
    ExpEnvelopeTable,
    PolyEnvelopeTable,
    char_fn_grid,
    density_derivative,
    exp_envelope,
    poly_envelope,
)
from .transport import (
    QUANTILE_NODES,
    _require_exponent,
    normal_levels,
    quantile_distance,
    refine_weighted_l1,
)

__all__ = [
    "BoundParams",
    "ConstantLedger",
    "BoundCertificate",
    "LawEvaluation",
    "PairEvaluation",
    "gamma_k",
    "c_ring",
    "h_p_const",
    "theta_exponent",
    "choose_l",
    "choose_M",
    "c_hat",
    "c_bar",
    "polynomial_rate_certificate",
    "pointwise_certificate",
    "exponential_rate_certificate",
]

# Gaps below this are treated as zero (identical laws up to round-off).
ZERO_GAP = 1e-14


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Certificate parameters: finite weight power p >= 1, finite transport
    exponent q > 1, rate slack epsilon in (0, 1) and integer dimension d >= 1.

    The Fourier argument needs an even weight power, so ``p_even`` rounds p
    up to the next even integer >= 2; the original p is retained and the
    certificates add the documented total-variation supplement when the two
    differ."""

    p: float
    q: float
    epsilon: float
    d: int

    def __post_init__(self):
        _require_exponent(self.p, "weight power p", 1.0)
        _require_exponent(self.q, "transport exponent q", 1.0, strict=True)
        if not 0 < self.epsilon < 1:
            raise PreconditionError("epsilon must lie in (0, 1)")
        if not (float(self.d).is_integer() and self.d >= 1):
            raise PreconditionError(
                f"dimension d must be an integer >= 1, got {self.d!r}"
            )

    @property
    def p_even(self) -> int:
        return max(2, 2 * math.ceil(self.p / 2.0))

    @property
    def p_is_even_integer(self) -> bool:
        return float(self.p).is_integer() and int(self.p) % 2 == 0

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "epsilon": self.epsilon, "d": self.d}


# ---------------------------------------------------------------------------
# elementary constants
# ---------------------------------------------------------------------------

def gamma_k(k: int, d: int) -> float:
    """Radial tail constant: int_{|u| >= M} |u|^{-k} du = gamma_k / M^{k-d}
    with gamma_k = 2 pi^{d/2} / (Gamma(d/2) (k - d)); requires k > d."""
    if k <= d:
        raise PreconditionError("tail integral diverges unless k > d")
    return 2.0 * math.pi ** (d / 2.0) / (math.gamma(d / 2.0) * (k - d))


def c_ring(k: int, q: float, moment_a, moment_b) -> float:
    """Frequency-difference constant C°_k: |d^alpha phi_a(u) - d^alpha
    phi_b(u)| <= C°_k A (|u| + 1) for |alpha| = k.

    ``moment_a`` and ``moment_b`` map a power m to E|X|^m.  C°_0 = 1; for
    k >= 1,

        C°_k = E^{1/q'}|X_a|^{k q'} + k 2^{k-1} E^{1/q'}[(S + T)^{q'}],

    with S = |X_a|^{k-1}, T = |X_b|^{k-1} and 1/q + 1/q' = 1.  The mixed
    moment is expanded under independence when q' is an integer (only
    marginal moments are available); otherwise the Minkowski upper bound
    is used instead.
    """
    if k < 0:
        raise PreconditionError("derivative order must be >= 0")
    if q <= 1:
        raise PreconditionError("q must be > 1")
    if k == 0:
        return 1.0
    q_dual = q / (q - 1.0)
    first = moment_a(k * q_dual) ** (1.0 / q_dual)
    if abs(q_dual - round(q_dual)) < 1e-12:
        n = round(q_dual)
        cross = sum(
            math.comb(n, j) * moment_a((k - 1) * j) * moment_b((k - 1) * (n - j))
            for j in range(n + 1)
        )
        cross_root = cross ** (1.0 / n)
    else:
        cross_root = (
            moment_a((k - 1) * q_dual) ** (1.0 / q_dual)
            + moment_b((k - 1) * q_dual) ** (1.0 / q_dual)
        )
    return first + k * 2.0 ** (k - 1) * cross_root


def h_p_const(p: int, d: int) -> float:
    """Power-mean constant: |x|^p <= h_p sum_j |x_j|^p with h_p = d^{p/2-1}.
    Even p only; p = 0 is allowed for the unweighted branch (h_0 = 1/d)."""
    if p < 0 or p % 2 != 0:
        raise PreconditionError("weight power must be an even integer >= 0")
    return float(d) ** (p / 2.0 - 1.0)


def theta_exponent(l: int, p: float, d: int) -> float:
    """Rate exponent theta_{l,p} = (l - d) l / ((l + 1)(l + p + d)) in (0,1)."""
    if l <= d:
        raise PreconditionError("truncation order l must exceed the dimension")
    return (l - d) * l / ((l + 1.0) * (l + p + d))


def choose_l(epsilon: float, p: float, d: int) -> int:
    """Smallest integer l with theta_{l,p} >= 1 - epsilon, via
    ceil((d + sqrt(1-eps)(p+d)) / (1 - sqrt(1-eps))), guarded to l > d.

    The ceiling is taken with a 1e-9 downward nudge (the exact ratio can land
    on an integer, e.g. epsilon = 0.19, p = 0, d = 1 gives exactly 19, and
    float round-off would otherwise push it to 20); the subsequent bump loop
    restores the guarantee in the rare case the nudge undershoots.
    """
    if not 0 < epsilon < 1:
        raise PreconditionError("epsilon must lie in (0, 1)")
    root = math.sqrt(1.0 - epsilon)
    l = max(math.ceil((d + root * (p + d)) / (1.0 - root) - 1e-9), d + 1)
    while theta_exponent(l, p, d) < 1.0 - epsilon:
        l += 1
    return l


def choose_M(A: float, l: int) -> float:
    """Frequency truncation radius A^{-1/(l+1)} >= 1 for gaps A in (0, 1];
    gaps above 1 fall into the constant-bound regime, where M = 1."""
    if A <= 0:
        raise PreconditionError("gap A must be > 0")
    if A > 1:
        return 1.0
    return A ** (-1.0 / (l + 1.0))


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def c_hat(l: int, p: int, c_ring_p: float, b_table: PolyEnvelopeTable, d: int) -> float:
    """Pointwise product constant Chat_{l,p} = (2 h_p d / (2 pi)^d)
    (C°_p pi^{d/2} / Gamma(d/2 + 1) + b_{p,l} gamma_l)."""
    b_pl = b_table.get(p, l)
    return (
        2.0
        * h_p_const(p, d)
        * d
        / (2.0 * math.pi) ** d
        * (c_ring_p * _unit_ball_volume(d) + b_pl * gamma_k(l, d))
    )


def c_bar(l: int, p: int, c_hat_val: float, a_2p: float, a_2l: float, d: int) -> float:
    """Integrated constant Cbar_{l,p} = Chat_{l,p} pi^{d/2}/Gamma(d/2+1)
    + 2 sqrt(a_{0,2p} a_{0,2l}), with a_{0,m} the moment bound max of the
    pair's m-th absolute moments."""
    return c_hat_val * _unit_ball_volume(d) + 2.0 * math.sqrt(a_2p * a_2l)


# ---------------------------------------------------------------------------
# ledgers and certificates
# ---------------------------------------------------------------------------

@dataclass
class ConstantLedger:
    """Every constant evaluated while assembling a certificate, keyed the way
    the derivation names them.  Rebuilding from the same envelopes and moments
    is deterministic, so ledgers are bit-reproducible."""

    gamma: dict = field(default_factory=dict)
    c_ring: dict = field(default_factory=dict)
    h_p: float = 0.0
    c_hat: dict = field(default_factory=dict)
    c_bar: dict = field(default_factory=dict)
    theta: dict = field(default_factory=dict)
    moment_bounds: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def validate(self):
        for name, table in (
            ("gamma", self.gamma),
            ("c_ring", self.c_ring),
            ("c_hat", self.c_hat),
            ("c_bar", self.c_bar),
            ("moment_bounds", self.moment_bounds),
        ):
            for key, v in table.items():
                if not (math.isfinite(v) and v > 0):
                    raise PreconditionError(f"{name}[{key}] = {v!r} is not usable")
        for key, v in self.theta.items():
            if not 0 < v < 1:
                raise PreconditionError(f"theta[{key}] = {v!r} outside (0, 1)")

    def to_json(self) -> dict:
        def keyed(table):
            return {
                ",".join(str(x) for x in (k if isinstance(k, tuple) else (k,))): (
                    v if isinstance(v, str) else float(v)
                )
                for k, v in table.items()
            }

        return {
            "gamma": keyed(self.gamma),
            "c_ring": keyed(self.c_ring),
            "h_p": self.h_p,
            "c_hat": keyed(self.c_hat),
            "c_bar": keyed(self.c_bar),
            "theta": keyed(self.theta),
            "moment_bounds": keyed(self.moment_bounds),
            "extra": {
                k: (v if isinstance(v, str) else float(v))
                for k, v in self.extra.items()
            },
        }


@dataclass(frozen=True)
class BoundCertificate:
    """A fully evaluated inequality instance: measured left side, assembled
    right side, the gap A it was driven by, and the complete constant ledger.
    ``satisfied`` is always exactly ``lhs <= rhs``."""

    params: BoundParams
    regime: str
    l: int
    M: float
    A: float
    lhs: float
    rhs: float
    ledger: ConstantLedger
    envelope_note: str
    provenance: str = "empirical"

    @property
    def satisfied(self) -> bool:
        return bool(self.lhs <= self.rhs)

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "params": self.params.to_json(),
            "l": int(self.l),
            "M": float(self.M),
            "A": float(self.A),
            "constants": self.ledger.to_json(),
            "rhs": float(self.rhs),
            "lhs": float(self.lhs),
            "satisfied": self.satisfied,
            "provenance": self.provenance,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# the pair evaluation and shared assembly pieces
# ---------------------------------------------------------------------------

class LawEvaluation:
    """The quantities certificates read off one law on one space grid.

    The quantiles at the Gauss-Hermite levels of both rule orders (one
    bisection serves the two), the law discretized on ``grid`` refined
    ``level`` times, its characteristic grid, its order-``K``
    decay-envelope tables and its absolute and exponential moments are
    each computed on first use and then kept, so every pair that holds
    this evaluation shares them.  Concurrent first uses recompute the same
    deterministic value.
    """

    def __init__(self, law: GaussianMixture, grid: SpaceGrid, K: int):
        self.law, self.grid, self.K = law, grid, K
        self._kept = {}

    def _keep(self, key, compute):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def quantiles(self, n_nodes: int) -> np.ndarray:
        """The law's quantiles at ``normal_levels(n_nodes)``, for the two
        rule orders of :func:`tvrates.transport.quantile_distance`."""
        return self._quantiles[n_nodes]

    @cached_property
    def _quantiles(self) -> dict:
        # one bisection serves both orders, each with its own stopping test
        orders = (QUANTILE_NODES, 2 * QUANTILE_NODES)
        values = self.law.quantile(tuple(normal_levels(n) for n in orders))
        return dict(zip(orders, values))

    def density(self, level: int):
        return self._keep(
            ("density", level),
            lambda: discretize(self.law, self.grid.refined(2**level)),
        )

    @cached_property
    def char_grid(self):
        return char_fn_grid(self.density(0))

    def poly_envelope(self, L: int) -> PolyEnvelopeTable:
        return self._keep(
            ("poly_envelope", L), lambda: poly_envelope(self.char_grid, self.K, L)
        )

    @cached_property
    def exp_envelope(self) -> ExpEnvelopeTable:
        return exp_envelope(self.char_grid, self.K)

    def abs_moment(self, m: float) -> float:
        return self._keep(("abs_moment", m), lambda: self.law.abs_moment(m))

    def exp_abs_moment(self, r: float) -> float:
        return self._keep(("exp_abs_moment", r), lambda: self.law.exp_abs_moment(r))


class PairEvaluation:
    """The quantities every certificate reads off one pair of laws.

    A pair holds one :class:`LawEvaluation` per law (``laws``) and derives
    from them, on first use and then kept, the W_q gap (from the two laws'
    quantiles), rho_p and tv (one refinement ladder over the two laws'
    kept densities) and the pair's combined decay-envelope tables, so
    certificates built from one evaluation share them and a certificate
    computes only what it reads.  ``grid`` is the shared space grid (the
    pair's common sigma-box grid when omitted).  :meth:`of_laws` builds a
    pair from evaluations that other pairs share, as a sweep does for its
    reference law.  Concurrent first uses recompute the same deterministic
    value.
    """

    def __init__(
        self,
        a: GaussianMixture,
        b: GaussianMixture,
        params: BoundParams,
        grid: SpaceGrid | None = None,
    ):
        _check_pair(a, b, params)
        grid = grid if grid is not None else common_grid(a, b)
        self._setup(
            LawEvaluation(a, grid, params.p_even),
            LawEvaluation(b, grid, params.p_even),
            params,
        )

    @classmethod
    def of_laws(cls, la: LawEvaluation, lb: LawEvaluation, params: BoundParams):
        """The pair of two law evaluations on one grid, at order p_even."""
        _check_pair(la.law, lb.law, params)
        if la.grid != lb.grid or la.K != params.p_even or lb.K != params.p_even:
            raise PreconditionError("law evaluations disagree on the grid or order")
        pair = cls.__new__(cls)
        pair._setup(la, lb, params)
        return pair

    def _setup(self, la, lb, params):
        self.laws = (la, lb)
        self.a, self.b, self.params, self.grid = la.law, lb.law, params, la.grid
        self._poly_envelopes = {}

    @cached_property
    def gap(self) -> float:
        """The measured gap A = W_q(a, b); exactly 0 for identical laws."""
        if self.a == self.b:
            return 0.0
        la, lb = self.laws
        return quantile_distance(
            lambda n: (la.quantiles(n), lb.quantiles(n)), self.params.q
        ).value

    @cached_property
    def distances(self) -> tuple:
        """The :class:`DistanceResult` of rho_p and of tv, from one ladder;
        each equals its standalone :func:`tvrates.transport.rho_p` value on
        ``grid``, but if either does not resolve, reading both raises."""
        la, lb = self.laws
        return refine_weighted_l1(
            lambda level: (la.density(level), lb.density(level)),
            (self.params.p, 0.0),
        )

    @property
    def rho(self) -> float:
        return self.distances[0].value

    @property
    def tv(self) -> float:
        return self.distances[1].value

    def poly_envelopes(self, L: int) -> PolyEnvelopeTable:
        """Frequency-side table valid for both laws, k <= p_even, l <= L."""
        if L not in self._poly_envelopes:
            la, lb = self.laws
            self._poly_envelopes[L] = la.poly_envelope(L).combine_max(lb.poly_envelope(L))
        return self._poly_envelopes[L]

    @cached_property
    def exp_envelopes(self) -> ExpEnvelopeTable:
        """Exponential-decay table valid for both laws, k <= p_even."""
        la, lb = self.laws
        return la.exp_envelope.combine(lb.exp_envelope)


def _check_pair(a: GaussianMixture, b: GaussianMixture, params: BoundParams):
    if a.d != b.d or a.d != params.d:
        raise PreconditionError("pair and parameter dimensions disagree")
    if params.d != 1:
        raise PreconditionError(
            "certificates require an exact Wasserstein gap, which is only "
            "available in dimension one for analytic inputs"
        )


def _trivial_rho_bound(a, b, p: float) -> float:
    """rho_p(a, b) <= int (1 + |x|^p)(f_a + f_b) = 2 + E_a|X|^p + E_b|X|^p."""
    return 2.0 + a.abs_moment(p) + b.abs_moment(p)


def _zero_certificate(params, regime, l) -> BoundCertificate:
    ledger = ConstantLedger()
    ledger.extra["branch"] = "identical-inputs"
    return BoundCertificate(
        params, regime, l, 1.0, 0.0, 0.0, 0.0, ledger, "not-needed (A = 0)"
    )


# ---------------------------------------------------------------------------
# polynomial-decay regime
# ---------------------------------------------------------------------------

def polynomial_rate_certificate(pair: PairEvaluation) -> BoundCertificate:
    """Certificate for rho_p <= (2 Cbar_{l,p} + Cbar_{l,0}) A^{theta_{l,p}}.

    The envelopes are the pair's frequency-side table.  The measured left
    side uses the original weight power; when that power is not an even
    integer the right side carries the supplement 2 Cbar_{l,0} A^{theta_{l,0}}
    coming from rho_p <= rho_{p_even} + 2 tv.
    """
    a, b = pair.laws
    params = pair.params
    p, d = params.p_even, params.d
    l = choose_l(params.epsilon, p, d)
    A = pair.gap
    if A <= ZERO_GAP:
        return _zero_certificate(params, "lemma1-poly", l)
    envelopes = pair.poly_envelopes(l + d + 1)

    ledger = ConstantLedger()
    mom_a, mom_b = a.abs_moment, b.abs_moment
    ledger.gamma[l] = gamma_k(l, d)
    ledger.c_ring[0] = 1.0
    ledger.c_ring[p] = c_ring(p, params.q, mom_a, mom_b)
    ledger.h_p = h_p_const(p, d)
    for m in (2 * p, 2 * l):
        ledger.moment_bounds[m] = max(mom_a(m), mom_b(m))
    a_2p, a_2l = ledger.moment_bounds[2 * p], ledger.moment_bounds[2 * l]
    ledger.c_hat[(l, p)] = c_hat(l, p, ledger.c_ring[p], envelopes, d)
    ledger.c_hat[(l, 0)] = c_hat(l, 0, 1.0, envelopes, d)
    ledger.c_bar[(l, p)] = c_bar(l, p, ledger.c_hat[(l, p)], a_2p, a_2l, d)
    ledger.c_bar[(l, 0)] = c_bar(l, 0, ledger.c_hat[(l, 0)], 1.0, a_2l, d)
    ledger.theta[(l, p)] = theta_exponent(l, p, d)
    ledger.theta[(l, 0)] = theta_exponent(l, 0, d)

    M = choose_M(A, l)
    if A <= 1.0:
        ledger.extra["space_truncation_M"] = A ** (
            -(l - d) / ((l + 1.0) * (l + p + d))
        )
        rhs = (2.0 * ledger.c_bar[(l, p)] + ledger.c_bar[(l, 0)]) * A ** ledger.theta[
            (l, p)
        ]
        if not params.p_is_even_integer:
            supplement = 2.0 * ledger.c_bar[(l, 0)] * A ** ledger.theta[(l, 0)]
            ledger.extra["odd_p_tv_supplement"] = supplement
            rhs += supplement
        ledger.extra["branch"] = "rate"
    else:
        triv = _trivial_rho_bound(a, b, params.p)
        ledger.extra["trivial_bound"] = triv
        ledger.extra["branch"] = "constant"
        rhs = triv * A
    ledger.validate()

    note = f"empirical frequency-side envelopes, k <= {envelopes.max_k}, l <= {envelopes.max_l}"
    return BoundCertificate(params, "lemma1-poly", l, M, A, pair.rho, rhs, ledger, note)


# ---------------------------------------------------------------------------
# pointwise regime
# ---------------------------------------------------------------------------

def pointwise_certificate(pair: PairEvaluation, alpha=None) -> BoundCertificate:
    """Sup-norm certificate: ||(d^alpha f_a - d^alpha f_b)(1 + |x|^p)||_inf
    <= K A^{(l - d - |alpha|)/(l + 1)} with K assembled from the pair's
    moments and the frequency-side envelope at orders 0 and p_even."""
    a, b = pair.laws
    params = pair.params
    p, d = params.p_even, params.d
    alpha = tuple(int(x) for x in (alpha if alpha is not None else (0,) * d))
    if len(alpha) != d or any(x < 0 for x in alpha):
        raise PreconditionError("alpha must be a nonnegative multiindex of rank d")
    k_a = sum(alpha)
    l = max(choose_l(params.epsilon, p, d), d + k_a + 1)
    A = pair.gap
    if A <= ZERO_GAP:
        return _zero_certificate(params, "pointwise", l)
    envelopes = pair.poly_envelopes(l + d + 1)

    ledger = ConstantLedger()
    ledger.c_ring[0] = 1.0
    ledger.c_ring[p] = c_ring(p, params.q, a.abs_moment, b.abs_moment)
    ledger.h_p = h_p_const(p, d)
    ledger.gamma[l - k_a] = gamma_k(l - k_a, d)
    ledger.theta[(l, p)] = theta_exponent(l, p, d)
    vball = _unit_ball_volume(d)
    inv_two_pi_d = (2.0 * math.pi) ** (-d)
    # weighted part: |d^alpha(f_a - f_b)| sum_j |x_j|^p
    k_weighted = inv_two_pi_d * (
        2.0 * d * ledger.c_ring[p] * vball
        + 2.0 * d * envelopes.get(p, l) * ledger.gamma[l - k_a]
    )
    # flat part: |d^alpha(f_a - f_b)| alone, via plain inversion
    k_flat = inv_two_pi_d * (
        2.0 * vball + 2.0 * envelopes.get(0, l) * ledger.gamma[l - k_a]
    )
    flat_factor = 1.0 if params.p_is_even_integer else 2.0
    k_total = ledger.h_p * k_weighted + flat_factor * k_flat
    ledger.extra["k_weighted"] = k_weighted
    ledger.extra["k_flat"] = k_flat
    ledger.extra["k_total"] = k_total
    exponent = (l - d - k_a) / (l + 1.0)
    ledger.extra["exponent"] = exponent
    M = choose_M(A, l)
    if A <= 1.0:
        rhs = k_total * A**exponent
        ledger.extra["branch"] = "rate"
    else:
        rhs = k_total * A
        ledger.extra["branch"] = "constant"
    ledger.validate()

    fa, fb = a.density(0), b.density(0)
    if k_a == 0:
        diff = np.abs(fa.values - fb.values)
    else:
        diff = np.abs(density_derivative(fa, alpha) - density_derivative(fb, alpha))
    weight = 1.0 + pair.grid.radii() ** params.p
    lhs = float(np.max(diff * weight))
    note = f"empirical frequency-side envelopes, k <= {envelopes.max_k}, l <= {envelopes.max_l}"
    return BoundCertificate(params, "pointwise", l, M, A, lhs, rhs, ledger, note)


# ---------------------------------------------------------------------------
# exponential-decay regime
# ---------------------------------------------------------------------------

def _radial_tail_coef(rate: float, d: int, m_floor: float) -> float:
    """kappa with int_M^inf e^{-rate t} t^{d-1} dt <= kappa e^{-rate M} M^{d-1}
    for all M >= m_floor (>= 1); exact expansion of the incomplete gamma."""
    return sum(
        (math.factorial(d - 1) / math.factorial(d - 1 - j))
        * rate ** (-(j + 1))
        * m_floor ** (-j)
        for j in range(d)
    )


def exponential_rate_certificate(pair: PairEvaluation, r: float = 1.0) -> BoundCertificate:
    """Certificate for rho_p <= C'''' A |ln A|^{2d+1} in the small-gap regime.

    ``r`` is the exponential-moment rate; ``c_sharp`` = E e^{r|X_a|} +
    E e^{r|X_b|} is evaluated in closed form.
    The regime requires |ln A| > Lambda = max(r_p, r_0, r/s, p_even/s) so
    that both truncation radii exceed their floors; otherwise the certificate
    falls back to ``rhs = C max(A, 1)`` with the trivial moment constant C.
    Every chain constant lands in the ledger under ``extra``.
    """
    a, b = pair.laws
    params = pair.params
    p, d = params.p_even, params.d
    if r <= 0:
        raise PreconditionError("exponential moment rate must be > 0")
    A = pair.gap
    if A <= ZERO_GAP:
        return _zero_certificate(params, "lemma2-exp", d + 1)
    exp_envelopes = pair.exp_envelopes
    c_sharp = a.exp_abs_moment(r) + b.exp_abs_moment(r)

    r_p, c_p = exp_envelopes.get(p)
    r_0, c_0 = exp_envelopes.get(0)
    s_p = exp_envelopes.sups[p]
    s_0 = exp_envelopes.sups[0]
    s_fac = 1.0 if p <= 2 * d + 1 else 2.0
    lam = max(r_p, r_0, r / s_fac, p / s_fac)

    ledger = ConstantLedger()
    ledger.c_ring[0] = 1.0
    ledger.c_ring[p] = c_ring(p, params.q, a.abs_moment, b.abs_moment)
    ledger.h_p = h_p_const(p, d)
    ledger.extra.update(
        {
            "r": r, "c_sharp": c_sharp, "r_p": r_p, "c_p": c_p, "r_0": r_0,
            "c_0": c_0, "sup_p": s_p, "sup_0": s_0, "lambda": lam,
            "s_factor": s_fac,
        }
    )
    lhs = pair.rho

    in_regime = 0.0 < A < math.exp(-lam)
    if not in_regime:
        triv = _trivial_rho_bound(a, b, params.p)
        ledger.extra["trivial_bound"] = triv
        ledger.extra["branch"] = "constant"
        ledger.validate()
        rhs = triv * max(A, 1.0)
        return BoundCertificate(
            params, "lemma2-exp", d + 1, 1.0, A, lhs, rhs, ledger,
            "empirical exponential envelopes (fallback branch)",
        )

    log_gap = abs(math.log(A))
    vball = _unit_ball_volume(d)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    inv_two_pi_d = (2.0 * math.pi) ** (-d)

    # pointwise step at frequency radius M1 = 2 |ln A| / rate (>= 2 in-regime):
    # |f_a - f_b| sum_j |x_j|^p <= C2_p A |ln A|^{d+1}, and the p = 0 variant.
    def pointwise_coef(rate, integral, sup, near_scale, l2_scale):
        near = inv_two_pi_d * near_scale * vball * (2.0 / rate) ** (d + 1)
        kappa = _radial_tail_coef(rate, d, 2.0)
        l2 = l2_scale * sup * integral
        tail = (
            inv_two_pi_d
            * math.sqrt(l2 * sphere * kappa)
            * (2.0 / rate) ** ((d - 1) / 2.0)
            * lam ** (-(d + 3) / 2.0)
        )
        return near + tail, kappa

    c2_p, kappa_p = pointwise_coef(
        r_p, c_p, s_p, 2.0 * d * ledger.c_ring[p], float(d * d)
    )
    c2_0, kappa_0 = pointwise_coef(r_0, c_0, s_0, 2.0, 1.0)
    ledger.extra.update({"kappa_p": kappa_p, "kappa_0": kappa_0,
                         "c2_weighted": c2_p, "c2_flat": c2_0})

    # space step at radius M2 = s |ln A| / r: ball volume times the pointwise
    # bound, plus the exponential-moment tail.
    c3_weighted = ledger.h_p * c2_p * vball * (s_fac / r) ** d
    if s_fac == 1.0:
        far_weighted = c_sharp * r ** (-p) * lam ** (p - 2 * d - 1)
    else:
        t_hat = max(lam, p - 2.0 * d - 1.0)
        boost = math.exp(-t_hat) * t_hat ** (p - 2 * d - 1)
        ledger.extra["far_boost"] = boost
        far_weighted = c_sharp * (s_fac / r) ** p * boost
    c3_flat = c2_0 * vball * r ** (-d)
    far_flat = c_sharp * lam ** (-(2 * d + 1))
    c4 = c3_weighted + far_weighted + c3_flat + far_flat
    if not params.p_is_even_integer:
        supplement = 2.0 * (c3_flat + far_flat)
        ledger.extra["odd_p_tv_supplement_coef"] = supplement
        c4 += supplement
    ledger.extra.update(
        {
            "c3_weighted": c3_weighted, "far_weighted": far_weighted,
            "c3_flat": c3_flat, "far_flat": far_flat, "c4_total": c4,
            "M1_weighted": 2.0 * log_gap / r_p, "M1_flat": 2.0 * log_gap / r_0,
            "M2": s_fac * log_gap / r, "branch": "polylog",
        }
    )
    ledger.validate()

    rhs = c4 * A * log_gap ** (2 * d + 1)
    return BoundCertificate(
        params, "lemma2-exp", d + 1, 2.0 * log_gap / r_p, A, lhs, rhs, ledger,
        "empirical exponential envelopes",
    )
