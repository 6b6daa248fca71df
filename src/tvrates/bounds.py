"""Explicit-constant certificates bounding weighted total variation by
Wasserstein distance.

Two regimes are implemented, plus a pointwise variant:

* ``lemma1-poly``: under polynomial decay of the pair's characteristic
  functions (frequency-side envelope table b_{k,l}), the weighted total
  variation rho_p is bounded by ``(2 Cbar_{l,p} + Cbar_{l,0}) A^{theta_{l,p}}``
  where ``A`` is the measured W_q gap and every constant in the chain
  (gamma_l, C-ring, Chat, Cbar, theta) is evaluated and recorded.

* ``lemma2-exp``: under exponential decay (integrals of |phi^{(k)}| against
  e^{r_k |u|}) and an exponential moment bound, the rate improves to
  ``C * A |ln A|^3``; the certificate assembles C by explicitly tracking
  the frequency truncation at ``M = 2|ln A|/r``, the Cauchy-Schwarz split of
  the tail, the exponential tail bound, and the space truncation at
  ``M = s |ln A|/r``.  Rows outside the small-gap regime fall back to a
  trivially sound constant bound.

* ``pointwise``: sup-norm version for a fixed derivative order.

The laws are one-dimensional, so the paper's dimension-d constants are
written at d = 1: the unit sphere has measure 2 and h_p is 1.

All certificates are *empirical*: envelope constants are grid maxima, so a
certificate is strong evidence, not a proof, and carries that provenance tag.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (
    GaussianMixture,
    SpaceGrid,
    _even_moments,
    common_grid,
    discretize,
    mixture_quantiles,
)
from .errors import PreconditionError, ResolutionError
from .spectral import (
    ExpEnvelopeTable,
    _poly_entry,
    _stack_of,
    char_fn_grid,
    exp_envelope,
)
from .transport import (
    QUANTILE_ORDERS,
    _quantile_wq,
    _require_exponent,
    normal_levels,
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
    "theta_exponent",
    "choose_l",
    "choose_M",
    "c_hat",
    "c_bar",
    "polynomial_rate_certificate",
    "pointwise_certificate",
    "exponential_rate_certificate",
]

# Gaps at or below this are below the quadrature's resolution: identical
# laws get the zero certificate, distinct ones a ResolutionError.
ZERO_GAP = 1e-14

# Order of the Gauss-Hermite rule whose W_q value is the gap: the doubled
# order, which gives the value of tvrates.transport.wasserstein_1d.
GAP_NODES = QUANTILE_ORDERS[-1]

# Volume of the unit ball [-1, 1], in the d-ball form pi^{d/2} / Gamma(d/2 + 1)
# at d = 1, which rounds to 1.9999999999999998 (the ledger keeps those bits).
_UNIT_BALL = math.pi ** 0.5 / math.gamma(1.5)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Certificate parameters: finite weight power p >= 1, finite transport
    exponent q > 1 and rate slack epsilon in (0, 1); the laws are
    one-dimensional.

    The Fourier argument needs an even weight power, so ``p_even`` rounds p
    up to the next even integer >= 2; the original p is retained and the
    certificates add the documented total-variation supplement when the two
    differ."""

    p: float
    q: float
    epsilon: float

    def __post_init__(self):
        _require_exponent(self.p, "weight power p", 1.0)
        _require_exponent(self.q, "transport exponent q", 1.0, strict=True)
        if not 0 < self.epsilon < 1:
            raise PreconditionError("epsilon must lie in (0, 1)")
        # the truncation order of the certificates must stay in the float
        # range
        choose_l(self.epsilon, self.p, 1)

    @property
    def p_even(self) -> int:
        return max(2, 2 * math.ceil(self.p / 2.0))

    @property
    def p_is_even_integer(self) -> bool:
        return float(self.p).is_integer() and int(self.p) % 2 == 0

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "epsilon": self.epsilon}


# ---------------------------------------------------------------------------
# elementary constants
# ---------------------------------------------------------------------------

def gamma_k(k: int) -> float:
    """Tail constant: int_{|u| >= M} |u|^{-k} du = gamma_k / M^{k-1} for k > 1,
    in the d-ball form 2 pi^{1/2} / (Gamma(1/2) (k - 1)), which differs from
    2 / (k - 1) in the last bit at some k (k = 10, for one)."""
    if k <= 1:
        raise PreconditionError("tail integral diverges unless k > 1")
    root_pi = math.pi ** 0.5  # equals math.gamma(0.5) as a float
    return 2.0 * root_pi / (root_pi * (k - 1))


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


def theta_exponent(l: int, p: float, d: int) -> float:
    """Rate exponent theta_{l,p} = (l - d) l / ((l + 1)(l + p + d)) in (0,1)."""
    if l <= d:
        raise PreconditionError("truncation order l must exceed the dimension")
    return (l - d) * l / ((l + 1.0) * (l + p + d))


def choose_l(epsilon: float, p: float, d: int) -> int:
    """The paper's truncation order l with theta_{l,p} >= 1 - epsilon:
    ceil((d + sqrt(1-eps)(p+d)) / (1 - sqrt(1-eps))), guarded to l > d.

    This is a sufficient choice, not the smallest such l: it makes each
    factor (l - d) / (l + p + d) and l / (l + 1) of theta at least
    sqrt(1 - eps).  At eps = 0.1, p = 2 it returns 75, while theta_47 =
    0.9008 already.  The ceiling is taken with a 1e-9 downward nudge (the
    exact ratio can land on an integer, e.g. epsilon = 0.19, p = 0, d = 1
    gives exactly 19, and float round-off would otherwise push it to 20);
    the bump loop restores the guarantee should the nudge undershoot,
    which no sampled (eps, p, d) has made it do.  Below eps ~ 1.1e-16,
    1 - sqrt(1 - eps) rounds to 0 and l is past the float range.
    """
    if not 0 < epsilon < 1:
        raise PreconditionError("epsilon must lie in (0, 1)")
    root = math.sqrt(1.0 - epsilon)
    ratio = (d + root * (p + d)) / (1.0 - root) if root < 1.0 else math.inf
    # theta_exponent forms l^2, which must stay a float; nan fails too
    if not ratio * ratio < math.inf:
        raise PreconditionError(
            f"weight power p = {p!r} at epsilon = {epsilon!r} puts the "
            "truncation order l past the float range"
        )
    l = max(math.ceil(ratio - 1e-9), d + 1)
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


def c_hat(l: int, c_ring_p: float, b_pl: float) -> float:
    """Pointwise product constant Chat_{l,p} = (2 / (2 pi))
    (C°_p |B_1| + b_{p,l} gamma_l), with |B_1| the unit-ball volume and
    b_{p,l} the pair's frequency-side envelope entry."""
    return 2.0 / (2.0 * math.pi) * (c_ring_p * _UNIT_BALL + b_pl * gamma_k(l))


def c_bar(c_hat_val: float, a_2p: float, a_2l: float) -> float:
    """Integrated constant Cbar_{l,p} = Chat_{l,p} |B_1| + 2 sqrt(a_{0,2p}
    a_{0,2l}), with a_{0,m} the moment bound max of the pair's m-th absolute
    moments."""
    return c_hat_val * _UNIT_BALL + 2.0 * math.sqrt(a_2p * a_2l)


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
                    raise PreconditionError(f"{name}[{key}] = {float(v)!r} is not usable")
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


# ---------------------------------------------------------------------------
# the pair evaluation and shared assembly pieces
# ---------------------------------------------------------------------------

class LawEvaluation:
    """The quantities certificates read off one law on one space grid.

    The quantiles at the levels of the gap's Gauss-Hermite rule (order
    ``GAP_NODES``), the law discretized on ``grid`` refined ``level``
    times (the grid keeps the refined grids and their meshes, so every law
    on it shares them), its characteristic grid, its frequency-side
    envelope entries b_{k,l} and exponential-decay table (both off one
    derivative stack at orders 0 and K, the only orders the certificates
    read) and its absolute and exponential moments are each computed on
    first use and then kept, so every pair that holds this evaluation
    shares them.  :meth:`PairEvaluation.solve` fills the quantiles and the
    even moments of many evaluations in batches, as a sweep does for all of
    its laws.  Concurrent first uses recompute the same deterministic value.
    """

    def __init__(self, law: GaussianMixture, grid: SpaceGrid):
        self.law, self.grid = law, grid
        self._kept = {}

    def _keep(self, key, compute):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def density(self, level: int):
        return self._keep(
            ("density", level),
            lambda: discretize(self.law, self.grid.refined(2**level)),
        )

    @cached_property
    def char_grid(self):
        return char_fn_grid(self.density(0))

    def envelope(self, K: int, k: int, l: int) -> float:
        """The frequency-side entry b_{k,l} at derivative order k in (0, K)."""
        return self._keep(
            ("envelope", K, k, l),
            lambda: _poly_entry(_stack_of(self.char_grid, K, (0, K)), k, l),
        )

    def exp_envelope(self, K: int) -> ExpEnvelopeTable:
        """The exponential-decay table at derivative orders 0 and K."""
        return self._keep(
            ("exp_envelope", K),
            lambda: exp_envelope(self.char_grid, K, orders=(0, K)),
        )

    def abs_moment(self, m: float) -> float:
        return self._keep(("abs_moment", m), lambda: self.law.abs_moment(m))

    def exp_abs_moment(self, r: float) -> float:
        return self._keep(("exp_abs_moment", r), lambda: self.law.exp_abs_moment(r))


def _gap_quantiles(evaluations) -> list:
    """The quantiles at the gap's rule of each law evaluation, solved in
    one :func:`tvrates.distributions.mixture_quantiles` call for those that
    lack them, each evaluation once, and then kept."""
    todo = {id(ev): ev for ev in evaluations if "quantiles" not in ev._kept}
    levels = normal_levels(GAP_NODES)
    solved = mixture_quantiles([(ev.law, levels) for ev in todo.values()])
    for ev, quantiles in zip(todo.values(), solved):
        ev._kept["quantiles"] = quantiles
    return [ev._kept["quantiles"] for ev in evaluations]


class PairEvaluation:
    """The quantities every certificate reads off one pair of laws.

    A pair holds one :class:`LawEvaluation` per law (``laws``) and derives
    from them, on first use and then kept, the W_q gap (from the two laws'
    quantiles at the order ``GAP_NODES`` rule alone), rho_p and tv (one
    refinement ladder over the two laws' kept densities), the pair's
    envelope entries b_{k,l} (the larger of its laws' entries) and
    exponential table at derivative orders 0 and p_even, C° at p_even and
    the trivial moment bound on rho_p, so certificates built from one
    evaluation share them and a certificate computes only what it reads.
    :meth:`solve` fills in batches what the certificates of many pairs
    read first.  Both laws live on the pair's
    common sigma-box grid; :meth:`of_laws` builds a pair from evaluations
    on another grid that other pairs share, as a sweep does for its
    reference law.  Concurrent first uses recompute the same deterministic
    value.
    """

    def __init__(self, a: GaussianMixture, b: GaussianMixture, params: BoundParams):
        grid = common_grid(a, b)
        self._setup(LawEvaluation(a, grid), LawEvaluation(b, grid), params)

    @classmethod
    def of_laws(cls, la: LawEvaluation, lb: LawEvaluation, params: BoundParams):
        """The pair of two law evaluations on one grid."""
        if la.grid != lb.grid:
            raise PreconditionError("law evaluations disagree on the grid")
        pair = cls.__new__(cls)
        pair._setup(la, lb, params)
        return pair

    def _setup(self, la, lb, params):
        self.laws = (la, lb)
        self.a, self.b, self.params, self.grid = la.law, lb.law, params, la.grid

    @staticmethod
    def solve(pairs) -> None:
        """Fill what the certificates read of the laws of ``pairs``, each
        law evaluation once: the gap's quantiles in one solver call, and
        E|X|^m at each order m of :func:`_poly_moment_orders` from one
        moment recursion per order over the components of the laws that
        lack it (none if no law does).  Each equals the law's own
        ``abs_moment(m)`` bit for bit; one past the float range is left
        unfilled, so reading it raises as ``abs_moment`` does."""
        _gap_quantiles([ev for pair in pairs for ev in pair.laws])
        todo = {}
        for pair in pairs:
            for m in _poly_moment_orders(pair.params):
                for ev in pair.laws:
                    if ("abs_moment", m) not in ev._kept:
                        todo.setdefault(m, {})[id(ev)] = ev
        for m, evs in todo.items():
            evs = list(evs.values())
            for ev, value in zip(evs, _even_moments([ev.law for ev in evs], m)):
                if value is not None:
                    ev._kept["abs_moment", m] = value

    @cached_property
    def gap(self) -> float:
        """The measured gap A = W_q(a, b), the value of
        :func:`tvrates.transport.wasserstein_1d` read off the order
        ``GAP_NODES`` rule alone; exactly 0 for identical laws."""
        if self.a == self.b:
            return 0.0
        qa, qb = _gap_quantiles(self.laws)
        return _quantile_wq(qa, qb, self.params.q)

    @cached_property
    def distances(self) -> tuple:
        """The :class:`DistanceResult` of rho_p and of tv, from one ladder;
        on the pair's common grid each equals its standalone
        :func:`tvrates.transport.rho_p` value, but if either does not
        resolve, reading both raises."""
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

    def envelope(self, k: int, l: int) -> float:
        """Frequency-side entry b_{k,l} valid for both laws, k in (0,
        p_even): the larger of the two laws' entries."""
        la, lb = self.laws
        K = self.params.p_even
        return max(la.envelope(K, k, l), lb.envelope(K, k, l))

    @cached_property
    def exp_envelopes(self) -> ExpEnvelopeTable:
        """Exponential-decay table valid for both laws, k in (0, p_even)."""
        la, lb = self.laws
        K = self.params.p_even
        return la.exp_envelope(K).combine(lb.exp_envelope(K))

    @cached_property
    def _c_ring_p(self) -> float:
        """C°_{p_even}, which every certificate reads."""
        la, lb = self.laws
        return c_ring(self.params.p_even, self.params.q, la.abs_moment, lb.abs_moment)

    @cached_property
    def _trivial_bound(self) -> float:
        """rho_p(a, b) <= int (1 + |x|^p)(f_a + f_b) = 2 + E_a|X|^p + E_b|X|^p."""
        la, lb = self.laws
        return 2.0 + la.abs_moment(self.params.p) + lb.abs_moment(self.params.p)


def _ledger(pair: PairEvaluation) -> ConstantLedger:
    """A ledger opened as every certificate opens it: C°_0, C°_{p_even}, h_p."""
    return ConstantLedger(c_ring={0: 1.0, pair.params.p_even: pair._c_ring_p}, h_p=1.0)


def _identical_inputs(pair: PairEvaluation) -> bool:
    """Whether the pair gets the zero certificate: its laws are equal (so
    its gap is exactly 0).  A gap of distinct laws at or below ``ZERO_GAP``
    raises :class:`ResolutionError`, since it certifies nothing."""
    if pair.gap > ZERO_GAP:
        return False
    if pair.a == pair.b:
        return True
    raise ResolutionError(
        f"W_q gap {pair.gap!r} below the quadrature's resolution for distinct laws"
    )


def _zero_certificate(params, regime, l) -> BoundCertificate:
    ledger = ConstantLedger()
    ledger.extra["branch"] = "identical-inputs"
    return BoundCertificate(params, regime, l, 1.0, 0.0, 0.0, 0.0, ledger)


# ---------------------------------------------------------------------------
# polynomial-decay regime
# ---------------------------------------------------------------------------

def _poly_moment_orders(params: BoundParams) -> tuple:
    """The orders m = 2 p_even and m = 2 l of the moment bounds a_{0,m}
    that the polynomial certificate reads."""
    p = params.p_even
    return 2 * p, 2 * choose_l(params.epsilon, p, 1)


def polynomial_rate_certificate(pair: PairEvaluation) -> BoundCertificate:
    """Certificate for rho_p <= (2 Cbar_{l,p} + Cbar_{l,0}) A^{theta_{l,p}}.

    The envelopes are the pair's frequency-side entries.  The measured left
    side uses the original weight power; when that power is not an even
    integer the right side carries the supplement 2 Cbar_{l,0} A^{theta_{l,0}}
    coming from rho_p <= rho_{p_even} + 2 tv.
    """
    a, b = pair.laws
    params = pair.params
    p = params.p_even
    l = choose_l(params.epsilon, p, 1)
    A = pair.gap
    if _identical_inputs(pair):
        return _zero_certificate(params, "lemma1-poly", l)
    b_p, b_0 = pair.envelope(p, l), pair.envelope(0, l)

    ledger = _ledger(pair)
    ledger.gamma[l] = gamma_k(l)
    orders = _poly_moment_orders(params)
    for m in orders:
        ledger.moment_bounds[m] = float(max(a.abs_moment(m), b.abs_moment(m)))
    a_2p, a_2l = (ledger.moment_bounds[m] for m in orders)
    ledger.c_hat[(l, p)] = c_hat(l, ledger.c_ring[p], b_p)
    ledger.c_hat[(l, 0)] = c_hat(l, 1.0, b_0)
    ledger.c_bar[(l, p)] = c_bar(ledger.c_hat[(l, p)], a_2p, a_2l)
    ledger.c_bar[(l, 0)] = c_bar(ledger.c_hat[(l, 0)], 1.0, a_2l)
    ledger.theta[(l, p)] = theta_exponent(l, p, 1)
    ledger.theta[(l, 0)] = theta_exponent(l, 0, 1)

    M = choose_M(A, l)
    if A <= 1.0:
        ledger.extra["space_truncation_M"] = A ** (-(l - 1) / ((l + 1.0) * (l + p + 1)))
        rhs = (2.0 * ledger.c_bar[(l, p)] + ledger.c_bar[(l, 0)]) * A ** ledger.theta[
            (l, p)
        ]
        if not params.p_is_even_integer:
            supplement = 2.0 * ledger.c_bar[(l, 0)] * A ** ledger.theta[(l, 0)]
            ledger.extra["odd_p_tv_supplement"] = supplement
            rhs += supplement
        ledger.extra["branch"] = "rate"
    else:
        triv = ledger.extra["trivial_bound"] = pair._trivial_bound
        ledger.extra["branch"] = "constant"
        rhs = triv * A
    ledger.validate()
    return BoundCertificate(params, "lemma1-poly", l, M, A, pair.rho, rhs, ledger)


# ---------------------------------------------------------------------------
# pointwise regime
# ---------------------------------------------------------------------------

def _mixture_derivative(law: GaussianMixture, x: np.ndarray, alpha: int) -> np.ndarray:
    """The order-``alpha`` derivative of the density of ``law`` at ``x``, in
    closed form: sum_i w_i (-1)^alpha s_i^(-alpha-1) He_alpha(z_i) phi(z_i)
    with z_i = (x - m_i) / s_i, by Rodrigues' formula (DLMF ch. 18).  The
    three-term recurrence He_{n+1}(z) = z He_n(z) - n He_{n-1}(z) runs on
    He_n(z) phi(z), which stays in the float range where phi is small."""
    s = np.sqrt(law.covs[:, 0, 0])
    z = (x[:, None] - law.means[:, 0]) / s
    prev, cur = np.zeros_like(z), np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    for n in range(alpha):
        prev, cur = cur, z * cur - n * prev
    return cur @ (law.weights * (-1.0) ** alpha * s ** (-alpha - 1.0))


def pointwise_certificate(pair: PairEvaluation, alpha: int = 0) -> BoundCertificate:
    """Sup-norm certificate: ||(f_a^{(alpha)} - f_b^{(alpha)})(1 + |x|^p)||_inf
    <= K A^{(l - 1 - alpha)/(l + 1)} with K assembled from the pair's
    moments and the frequency-side envelope at orders 0 and p_even.

    The left side is the maximum over the pair's grid nodes: of the grid
    densities for alpha = 0, and of the closed-form derivatives of
    :func:`_mixture_derivative` for alpha >= 1.  A left side that leaves the
    float range raises :class:`ResolutionError`."""
    a, b = pair.laws
    params = pair.params
    p = params.p_even
    if not (isinstance(alpha, numbers.Integral) and not isinstance(alpha, bool)
            and alpha >= 0):
        raise PreconditionError(
            f"alpha must be a derivative order: an integer >= 0, got {alpha!r}"
        )
    k_a = int(alpha)
    l = max(choose_l(params.epsilon, p, 1), k_a + 2)
    A = pair.gap
    if _identical_inputs(pair):
        return _zero_certificate(params, "pointwise", l)
    with np.errstate(over="ignore", invalid="ignore"):
        if k_a == 0:
            diff = np.abs(a.density(0).values - b.density(0).values)
        else:
            nodes = pair.grid.nodes()
            diff = np.abs(
                _mixture_derivative(pair.a, nodes, k_a)
                - _mixture_derivative(pair.b, nodes, k_a)
            )
        weight = 1.0 + pair.grid.radii() ** params.p
        lhs = float(np.max(diff * weight))
    if not math.isfinite(lhs):
        raise ResolutionError(
            f"the order-{k_a} pointwise left side leaves the float range; "
            "lower alpha or the weight power"
        )
    b_p, b_0 = pair.envelope(p, l), pair.envelope(0, l)

    ledger = _ledger(pair)
    gamma = ledger.gamma[l - k_a] = gamma_k(l - k_a)
    ledger.theta[(l, p)] = theta_exponent(l, p, 1)
    # x ** -1 is kept from the d-dimensional form: 1.0 / x can differ in the
    # last bit, and the ledger keeps its bits
    inv_two_pi = (2.0 * math.pi) ** -1
    # weighted part: |(f_a - f_b)^{(alpha)}| |x|^p
    k_weighted = inv_two_pi * (
        2.0 * ledger.c_ring[p] * _UNIT_BALL + 2.0 * b_p * gamma
    )
    # flat part: |(f_a - f_b)^{(alpha)}| alone, via plain inversion
    k_flat = inv_two_pi * (2.0 * _UNIT_BALL + 2.0 * b_0 * gamma)
    flat_factor = 1.0 if params.p_is_even_integer else 2.0
    k_total = k_weighted + flat_factor * k_flat
    ledger.extra["k_weighted"] = k_weighted
    ledger.extra["k_flat"] = k_flat
    ledger.extra["k_total"] = k_total
    exponent = (l - 1 - k_a) / (l + 1.0)
    ledger.extra["exponent"] = exponent
    M = choose_M(A, l)
    if A <= 1.0:
        rhs = k_total * A**exponent
        ledger.extra["branch"] = "rate"
    else:
        rhs = k_total * A
        ledger.extra["branch"] = "constant"
    ledger.validate()
    return BoundCertificate(params, "pointwise", l, M, A, lhs, rhs, ledger)


# ---------------------------------------------------------------------------
# exponential-decay regime
# ---------------------------------------------------------------------------

def exponential_rate_certificate(pair: PairEvaluation, r: float = 1.0) -> BoundCertificate:
    """Certificate for rho_p <= C'''' A |ln A|^3 in the small-gap regime.

    ``r`` is the exponential-moment rate; ``c_sharp`` = E e^{r|X_a|} +
    E e^{r|X_b|} is evaluated in closed form.
    The regime requires |ln A| > Lambda = max(r_p, r_0, r/s, p_even/s) so
    that both truncation radii exceed their floors; otherwise the certificate
    falls back to ``rhs = C max(A, 1)`` with the trivial moment constant C.
    The certificate records the order l = 2, and every chain constant lands
    in the ledger under ``extra``.
    """
    a, b = pair.laws
    params = pair.params
    p = params.p_even
    if r <= 0:
        raise PreconditionError("exponential moment rate must be > 0")
    A = pair.gap
    if _identical_inputs(pair):
        return _zero_certificate(params, "lemma2-exp", 2)
    exp_envelopes = pair.exp_envelopes
    c_sharp = a.exp_abs_moment(r) + b.exp_abs_moment(r)

    r_p, c_p = exp_envelopes.get(p)
    r_0, c_0 = exp_envelopes.get(0)
    s_p = exp_envelopes.sups[p]
    s_0 = exp_envelopes.sups[0]
    s_fac = 1.0 if p <= 3 else 2.0
    lam = max(r_p, r_0, r / s_fac, p / s_fac)

    ledger = _ledger(pair)
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
        triv = ledger.extra["trivial_bound"] = pair._trivial_bound
        ledger.extra["branch"] = "constant"
        ledger.validate()
        rhs = triv * max(A, 1.0)
        return BoundCertificate(params, "lemma2-exp", 2, 1.0, A, lhs, rhs, ledger)

    log_gap = abs(math.log(A))
    inv_two_pi = (2.0 * math.pi) ** -1

    # pointwise step at frequency radius M1 = 2 |ln A| / rate (>= 2 in-regime):
    # |f_a - f_b| |x|^p <= C2_p A |ln A|^2, and the p = 0 variant.  The tail
    # past M1 splits by Cauchy-Schwarz over its two half-lines (measure 2),
    # with int_M^inf e^{-rate t} dt = kappa e^{-rate M} for kappa = rate^-1.
    def pointwise_coef(rate, integral, sup, near_scale):
        near = inv_two_pi * near_scale * _UNIT_BALL * (2.0 / rate) ** 2
        kappa = rate ** -1
        tail = inv_two_pi * math.sqrt(sup * integral * 2.0 * kappa) * lam ** -2.0
        return near + tail, kappa

    c2_p, kappa_p = pointwise_coef(r_p, c_p, s_p, 2.0 * ledger.c_ring[p])
    c2_0, kappa_0 = pointwise_coef(r_0, c_0, s_0, 2.0)
    ledger.extra.update({"kappa_p": kappa_p, "kappa_0": kappa_0,
                         "c2_weighted": c2_p, "c2_flat": c2_0})

    # space step at radius M2 = s |ln A| / r: ball volume times the pointwise
    # bound, plus the exponential-moment tail.
    c3_weighted = c2_p * _UNIT_BALL * (s_fac / r)
    if s_fac == 1.0:
        far_weighted = c_sharp * r ** (-p) * lam ** (p - 3)
    else:
        t_hat = max(lam, p - 3.0)
        boost = math.exp(-t_hat) * t_hat ** (p - 3)
        ledger.extra["far_boost"] = boost
        far_weighted = c_sharp * (s_fac / r) ** p * boost
    c3_flat = c2_0 * _UNIT_BALL * r ** -1
    far_flat = c_sharp * lam ** -3
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

    rhs = c4 * A * log_gap ** 3
    return BoundCertificate(
        params, "lemma2-exp", 2, 2.0 * log_gap / r_p, A, lhs, rhs, ledger
    )
