import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import mc_pair_moment, mixture_derivative_hermeval
from tvrates import (
    BoundParams,
    PairEvaluation,
    PreconditionError,
    ResolutionError,
    TvratesError,
    choose_l,
    exponential_rate_certificate,
    gaussian,
    pointwise_certificate,
    polynomial_rate_certificate,
    tv_mass,
    weighted_diff_reconstruct,
)
from tvrates import rho_p as rho_p_distance
from tvrates.bounds import (
    _UNIT_BALL,
    BoundCertificate,
    ConstantLedger,
    c_bar,
    c_hat,
    c_ring,
    choose_M,
    gamma_k,
    theta_exponent,
)
from tvrates.bounds import LawEvaluation
from tvrates.distributions import GaussianMixture, common_grid, mixture_quantiles
from tvrates.harness import default_scenarios, perturb_pair
from tvrates.transport import normal_levels, wasserstein_1d


def assert_law_quantiles_match_order_calls(law):
    # the batch that solves both rule orders of the law at once
    orders = (128, 256)
    solved = mixture_quantiles([(law, normal_levels(n)) for n in orders])
    for n, quantiles in zip(orders, solved):
        np.testing.assert_array_equal(quantiles, law.quantile(normal_levels(n)))


class TestGamma:
    def test_worked_values(self):
        # 2 sqrt(pi) / (Gamma(1/2) * 1) = 2;  2 sqrt(pi) / (sqrt(pi) * 2) = 1
        np.testing.assert_allclose(gamma_k(2), 2.0)
        np.testing.assert_allclose(gamma_k(3), 1.0)
        np.testing.assert_allclose(gamma_k(5), 0.5)

    def test_divergent_orders_rejected(self):
        for k in (1, 0, -3):
            with pytest.raises(PreconditionError):
                gamma_k(k)

    def test_decreasing_in_k(self):
        vals = [gamma_k(k) for k in range(2, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bit_keeping_forms(self):
        # the ledger keeps the bits of the d-ball forms at d = 1: gamma_k is
        # not 2 / (k - 1) in the last bit at k = 10, and the unit-ball volume
        # is not 2
        for k in range(2, 2001):
            assert gamma_k(k) == 2.0 * math.pi ** 0.5 / (math.gamma(0.5) * (k - 1))
        assert gamma_k(10) != 2.0 / 9
        assert _UNIT_BALL == math.pi ** 0.5 / math.gamma(1.5) != 2.0

    def test_matches_tail_integral_oracle(self):
        # 1-D: int_{|u|>=M} |u|^{-k} du = 2 M^{1-k}/(k-1)
        from scipy import integrate

        for k, m_cut in ((3, 1.5), (5, 2.0)):
            oracle, _ = integrate.quad(lambda u: 2 * u ** (-k), m_cut, np.inf)
            np.testing.assert_allclose(
                gamma_k(k) / m_cut ** (k - 1), oracle, rtol=1e-10
            )


class TestCRing:
    def test_order_zero_is_one(self, std_normal):
        assert c_ring(0, 2.0, std_normal.abs_moment, std_normal.abs_moment) == 1.0

    def test_first_order_standard_normal(self, std_normal):
        # E^{1/2} X^2 + 1 * 2^0 * E^{1/2}[(1 + 1)^2] = 1 + 2
        got = c_ring(1, 2.0, std_normal.abs_moment, std_normal.abs_moment)
        np.testing.assert_allclose(got, 3.0, rtol=1e-12)

    def test_second_order_standard_normal(self, std_normal):
        # sqrt(E X^4) + 2 * 2 * sqrt(E (|X|+|Y|)^2), X, Y independent:
        # E(|X|+|Y|)^2 = 2 + 2 (E|X|)^2 = 2 + 4/pi
        got = c_ring(2, 2.0, std_normal.abs_moment, std_normal.abs_moment)
        expected = math.sqrt(3.0) + 4.0 * math.sqrt(2.0 + 4.0 / math.pi)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        mc = mc_pair_moment(lambda x, y: (x + y) ** 2)
        assert abs(mc - (2.0 + 4.0 / math.pi)) / (2.0 + 4.0 / math.pi) < 0.01

    def test_non_integer_dual_uses_minkowski(self, std_normal):
        m = std_normal.abs_moment
        got = c_ring(2, 3.0, m, m)  # q' = 1.5
        bound = m(3.0) ** (2 / 3) + 2 * 2 * (m(1.5) ** (2 / 3) + m(1.5) ** (2 / 3))
        np.testing.assert_allclose(got, bound, rtol=1e-12)


class TestThetaAndChoices:
    def test_worked_values(self):
        np.testing.assert_allclose(theta_exponent(10, 2, 1), 90.0 / 143.0)
        np.testing.assert_allclose(theta_exponent(2, 0, 1), 2.0 / 9.0)

    def test_large_l_limit(self):
        assert theta_exponent(1000, 2, 1) > 0.995

    def test_strictly_increasing_in_l(self):
        vals = [theta_exponent(l, 2, 1) for l in range(2, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_choose_l_exact_integer_boundary(self):
        # sqrt(0.81) = 0.9 exactly: (1 + 0.9)/0.1 = 19; theta_{19,0} = 0.855
        assert choose_l(0.19, 0, 1) == 19
        np.testing.assert_allclose(theta_exponent(19, 0, 1), 342.0 / 400.0)

    def test_choose_l_typical(self):
        assert choose_l(0.1, 2, 1) == 75
        assert theta_exponent(75, 2, 1) >= 0.9

    def test_choose_l_guard_near_one(self):
        assert choose_l(1 - 1e-9, 2, 1) >= 2

    def test_choose_l_past_float_range_names_p(self):
        # (d + sqrt(1 - eps)(p + d)) / (1 - sqrt(1 - eps)) overflows a double
        with pytest.raises(PreconditionError, match="weight power p = 1e"):
            choose_l(0.1, 1e308, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        eps=st.floats(0.02, 0.98),
        p=st.sampled_from([0, 1, 2, 4, 6]),
        d=st.sampled_from([1, 2, 3]),
    )
    def test_choose_l_guarantee(self, eps, p, d):
        l = choose_l(eps, p, d)
        assert l > d
        assert theta_exponent(l, p, d) >= 1.0 - eps

    def test_choose_M_values(self):
        assert choose_M(1.0, 7) == 1.0
        np.testing.assert_allclose(choose_M(1e-4, 19), 10.0**0.2)
        np.testing.assert_allclose(choose_M(0.01, 9), 10.0**0.2)
        assert choose_M(3.0, 5) == 1.0  # constant-bound regime

    @settings(max_examples=40, deadline=None)
    @given(a1=st.floats(1e-6, 1.0), a2=st.floats(1e-6, 1.0))
    def test_choose_M_decreasing_and_above_one(self, a1, a2):
        lo, hi = sorted((a1, a2))
        assert choose_M(lo, 8) >= choose_M(hi, 8) >= 1.0


class TestChatCbar:
    def test_worked_example(self):
        # l=3, C-ring=10, b=5: prefactor 2/(2 pi), first term
        # 10 * sqrt(pi)/Gamma(3/2) = 20, gamma_3 = 1 -> 25/pi
        np.testing.assert_allclose(c_hat(3, 10.0, 5.0), 25.0 / math.pi)

    def test_degenerate_ledger(self):
        assert c_hat(3, 0.0, 0.0) == 0.0

    def test_second_worked_example(self):
        # l=4, C-ring=1, b=1: gamma_4 = 2/3 -> (1/pi)(2 + 2/3)
        np.testing.assert_allclose(c_hat(4, 1.0, 1.0), (1.0 / math.pi) * (8.0 / 3.0))

    def test_c_bar_assembly(self):
        # Cbar = Chat * vball + 2 sqrt(a_2p a_2l)
        got = c_bar(5.0, 4.0, 9.0)
        np.testing.assert_allclose(got, 5.0 * 2.0 + 2.0 * 6.0)


class TestPolynomialCertificate:
    def test_identical_inputs_short_circuit(self, std_normal, default_params):
        cert = polynomial_rate_certificate(
            PairEvaluation(std_normal, std_normal, default_params)
        )
        assert cert.A == 0.0 and cert.lhs == 0.0 and cert.rhs == 0.0
        assert cert.satisfied

    def test_translate_pair_satisfied_with_slack(self, std_normal, default_params):
        cert = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        )
        assert cert.satisfied
        assert cert.rhs / cert.lhs > 1.0
        assert cert.l == 75
        assert cert.provenance == "empirical"
        np.testing.assert_allclose(cert.A, 0.1, atol=1e-8)

    def test_rhs_monotone_in_gap(self, std_normal, default_params):
        rhs = []
        for h in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            cert = polynomial_rate_certificate(
                PairEvaluation(std_normal, gaussian(h, 1.0), default_params)
            )
            rhs.append(cert.rhs)
        assert all(b > a for a, b in zip(rhs, rhs[1:]))

    def test_large_gap_constant_branch(self, std_normal, default_params):
        cert = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(5.0, 1.0), default_params)
        )
        assert cert.ledger.extra["branch"] == "constant"
        assert cert.satisfied

    def test_odd_p_supplement_recorded(self, std_normal):
        params = BoundParams(p=3.0, q=2.0, epsilon=0.2)
        cert = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.1, 1.0), params)
        )
        assert "odd_p_tv_supplement" in cert.ledger.extra
        assert cert.satisfied

    def test_ledger_determinism(self, std_normal, default_params):
        c1 = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.2, 1.0), default_params)
        )
        c2 = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.2, 1.0), default_params)
        )
        assert c1.to_json() == c2.to_json()

    def test_intermediate_product_step_sound(self, std_normal, default_params):
        # the assembled Chat also bounds the measurable intermediate step:
        # sup |(f_a - f_b)(x) x^2| <= Chat_{l,2} A^{1 - 2/(l+1)}
        import tvrates as tv
        from tvrates.spectral import char_fn_grid, poly_envelope
        from tvrates.distributions import discretize

        b = gaussian(0.05, 1.0)
        grid = tv.common_grid(std_normal, b)
        fa = discretize(std_normal, grid)
        fb = discretize(b, grid)
        l = choose_l(default_params.epsilon, 2, 1)
        b_pl = max(poly_envelope(char_fn_grid(f), 2, l).get(2, l) for f in (fa, fb))
        chat = c_hat(l, c_ring(2, 2.0, std_normal.abs_moment, b.abs_moment), b_pl)
        gap = tv.wasserstein_1d(std_normal, b, 2).value
        x = grid.nodes()
        lhs = np.abs((std_normal.pdf(x) - b.pdf(x)) * x**2).max()
        assert lhs <= chat * gap ** (1.0 - 2.0 / (l + 1.0))

    def test_moment_overflow_is_typed_without_a_warning(self, std_normal):
        # at p = 6, eps = 0.1 the moment bounds a_12 a_298 overflow a double
        params = BoundParams(p=6.0, q=2.0, epsilon=0.1)
        pair = PairEvaluation(std_normal, gaussian(0.1, 1.0), params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                PreconditionError, match=r"^c_bar\[\(149, 6\)\] = inf is not usable$"
            ):
                polynomial_rate_certificate(pair)

    def test_multivariate_pairs_rejected(self):
        # the exact gap exists in dimension one only, so no 2-D law is built
        with pytest.raises(PreconditionError, match="one-dimensional"):
            gaussian([0.0, 0.0], np.eye(2))

    def test_json_schema(self, std_normal, default_params):
        cert = polynomial_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        )
        doc = cert.to_json()
        assert set(doc) == {
            "regime", "params", "l", "M", "A", "constants", "rhs", "lhs",
            "satisfied", "provenance",
        }
        assert doc["regime"] == "lemma1-poly"
        assert doc["params"] == {"p": 2.0, "q": 2.0, "epsilon": 0.1}
        assert doc["provenance"] == "empirical"


class TestPointwiseCertificate:
    def test_identical_inputs(self, std_normal, default_params):
        cert = pointwise_certificate(
            PairEvaluation(std_normal, std_normal, default_params)
        )
        assert cert.lhs == 0.0 and cert.rhs == 0.0 and cert.satisfied

    def test_order_zero_matches_reconstruction(self, std_normal, default_params):
        b = gaussian(0.05, 1.0)
        cert = pointwise_certificate(PairEvaluation(std_normal, b, default_params))
        assert cert.satisfied
        # spectral-reconstruction oracle for the weighted sup
        grid, vals = weighted_diff_reconstruct(std_normal, b, 2)
        x = grid.nodes()
        direct = np.abs((std_normal.pdf(x) - b.pdf(x)) * x**2)
        assert abs(np.abs(vals).max() - direct.max()) <= 1e-3

    def test_first_derivative_multiindex(self, std_normal, default_params):
        cert = pointwise_certificate(
            PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params), alpha=1
        )
        assert cert.satisfied
        expected = (cert.l - 1 - 1) / (cert.l + 1.0)
        np.testing.assert_allclose(cert.ledger.extra["exponent"], expected)

    def test_regime_tag(self, std_normal, default_params):
        cert = pointwise_certificate(
            PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params)
        )
        assert cert.to_json()["regime"] == "pointwise"

    @pytest.mark.parametrize(
        "alpha", [0.5, True, 1.0, "1", -1, (0, 0)], ids=[f"alpha{i}" for i in range(6)]
    )
    def test_non_integer_multiindex_rejected(self, std_normal, default_params, alpha):
        # the derivative order is one integer >= 0
        pair = PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params)
        with pytest.raises(PreconditionError, match="alpha must be a derivative order"):
            pointwise_certificate(pair, alpha=alpha)

    @pytest.mark.parametrize("alpha", [1, 5, 8, 30])
    def test_derivative_lhs_matches_hermite_closed_form(
        self, std_normal, default_params, alpha
    ):
        # the grid's spectral derivative read 166 for alpha = 6 (sup 3.09)
        # and 1.9e69 for alpha = 30, above that pair's rhs of 6.6e56; the
        # variances other than 1 check the factor s^(-alpha-1)
        def mixture(means, variances):
            return GaussianMixture([0.3, 0.7], means, variances)

        pairs = [
            (std_normal, gaussian(0.1, 1.0)),
            (gaussian(0.0, 0.25), gaussian(0.1, 0.25)),
            (gaussian(0.0, 4.0), gaussian(0.1, 4.0)),
            (mixture([-1.0, 0.5], [0.25, 2.0]), mixture([-0.9, 0.5], [0.25, 2.0])),
        ]
        for a, b in pairs:
            pair = PairEvaluation(a, b, default_params)
            cert = pointwise_certificate(pair, alpha=alpha)
            x = pair.grid.nodes()
            diff = mixture_derivative_hermeval(a, x, alpha) - (
                mixture_derivative_hermeval(b, x, alpha)
            )
            want = np.max(np.abs(diff) * (1.0 + np.abs(x) ** 2))
            assert abs(cert.lhs - want) <= 1e-8 * want
            assert cert.satisfied

    def test_derivative_out_of_float_range_is_typed(self, std_normal, default_params):
        # s^(-alpha-1) = 1e322 is past the float range, and so is its product
        # with He_160(0) phi(0) ~ 2e141 at the origin
        narrow = GaussianMixture([1.0], [[0.0]], [[[1e-4]]])
        pair = PairEvaluation(std_normal, narrow, default_params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="float range"):
                pointwise_certificate(pair, alpha=160)

    def test_numpy_integer_multiindex_accepted(self, std_normal, default_params):
        pair = PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params)
        got = pointwise_certificate(pair, alpha=np.int64(1))
        assert got.to_json() == pointwise_certificate(pair, alpha=1).to_json()


@pytest.mark.parametrize(
    "b", [gaussian(0.05, 1.21), GaussianMixture([0.9, 0.1], [0.0, 2.0], [1.0, 1.0])],
    ids=["wide", "blend"],
)
def test_truncation_orders_near_the_float_edge_give_finite_certificates(std_normal, b):
    # around l = 344 the entry b_{2,l} is finite but the pointwise constant
    # 2 b_{2,l} gamma_l overflowed to an rhs of inf that "held"; where the
    # edge falls moves with the numpy kernels, so scan the orders around it
    grid = common_grid(std_normal, b)
    laws = LawEvaluation(std_normal, grid), LawEvaluation(b, grid)
    for l in range(336, 351):
        root = (l - 1.5) / (l + 2.5)  # the ratio of choose_l lands in (l - 1, l]
        params = BoundParams(p=2.0, q=2.0, epsilon=1.0 - root * root)
        assert choose_l(params.epsilon, 2, 1) == l
        pair = PairEvaluation.of_laws(*laws, params)
        for certify in (pointwise_certificate, polynomial_rate_certificate):
            try:
                cert = certify(pair)
            except TvratesError as exc:
                assert isinstance(exc, PreconditionError)  # exit 2 from the CLI
            else:
                assert cert.l == l and math.isfinite(cert.rhs)


@pytest.mark.parametrize("rhs", [math.inf, math.nan])
def test_non_finite_right_side_refused(default_params, rhs):
    with pytest.raises(PreconditionError, match="pointwise right side .* not a finite"):
        BoundCertificate(default_params, "pointwise", 344, 1.0, 0.1, 1.0, rhs,
                         ConstantLedger())


class TestExponentialCertificate:
    def test_identical_inputs(self, std_normal, default_params):
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, std_normal, default_params)
        )
        assert cert.satisfied and cert.rhs == 0.0

    def test_small_gap_polylog_branch(self, std_normal, default_params):
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, gaussian(1e-3, 1.0), default_params)
        )
        assert cert.satisfied
        assert cert.ledger.extra["branch"] == "polylog"
        # rhs has exactly the shape C A |ln A|^3 in dimension one
        ratio = cert.rhs / (cert.A * abs(math.log(cert.A)) ** 3)
        np.testing.assert_allclose(ratio, cert.ledger.extra["c4_total"], rtol=1e-12)

    def test_polylog_ratio_constant_across_decades(self, std_normal, default_params):
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            cert = exponential_rate_certificate(
                PairEvaluation(std_normal, gaussian(h, 1.0), default_params)
            )
            ratios.append(cert.rhs / (cert.A * abs(math.log(cert.A)) ** 3))
        assert (max(ratios) - min(ratios)) / min(ratios) < 0.01

    def test_beats_polynomial_regime_for_small_gaps(self, std_normal, default_params):
        for h in (1e-2, 1e-3):
            c1 = polynomial_rate_certificate(
                PairEvaluation(std_normal, gaussian(h, 1.0), default_params)
            )
            c2 = exponential_rate_certificate(
                PairEvaluation(std_normal, gaussian(h, 1.0), default_params)
            )
            assert c2.rhs < c1.rhs

    def test_large_gap_falls_back(self, std_normal, default_params):
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, gaussian(0.5, 1.0), default_params)
        )
        assert cert.ledger.extra["branch"] == "constant"
        assert cert.satisfied

    @pytest.mark.parametrize("p, odd", [(2.5, True), (4.0, False)])
    def test_weight_power_past_three_boosts_the_far_term(self, std_normal, p, odd):
        # p_even = 4 > 2d + 1 doubles the space radius (s = 2), and a p
        # that is not an even integer adds the tv supplement
        params = BoundParams(p, 2.0, 0.1)
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, gaussian(1e-3, 1.0), params), r=1.0
        )
        extra = cert.ledger.extra
        assert extra["branch"] == "polylog" and cert.satisfied
        assert extra["s_factor"] == 2.0 and "far_boost" in extra
        assert ("odd_p_tv_supplement_coef" in extra) is odd

    def test_chain_constants_recorded(self, std_normal, default_params):
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, gaussian(1e-3, 1.0), default_params)
        )
        for key in ("r_p", "c_p", "r_0", "c_0", "c_sharp", "lambda", "kappa_p",
                    "c2_weighted", "c2_flat", "c3_weighted", "c3_flat",
                    "far_weighted", "far_flat", "c4_total", "M1_weighted", "M2"):
            assert key in cert.ledger.extra


class TestZeroGap:
    BUILDERS = [polynomial_rate_certificate, exponential_rate_certificate,
                pointwise_certificate]

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_distinct_laws_never_get_the_zero_certificate(
        self, std_normal, default_params, builder
    ):
        # the measured gap of this pair is ~2e-15, at or below ZERO_GAP, while
        # rho_p is 2.5e-15: the shortcut used to certify it as identical
        pair = PairEvaluation(std_normal, gaussian(1e-15, 1.0), default_params)
        with pytest.raises(ResolutionError, match="below the quadrature's resolution"):
            builder(pair)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_identical_laws_get_the_zero_certificate(
        self, std_normal, default_params, builder
    ):
        cert = builder(PairEvaluation(std_normal, gaussian(0.0, 1.0), default_params))
        assert cert.ledger.extra["branch"] == "identical-inputs"
        assert cert.A == cert.lhs == cert.rhs == 0.0 and cert.satisfied

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_permuted_components_get_the_zero_certificate(self, default_params, builder):
        a = GaussianMixture([0.3, 0.7], [-1.0, 2.0], [1.0, 0.5])
        b = GaussianMixture([0.7, 0.3], [2.0, -1.0], [0.5, 1.0])
        assert a == b and b == a
        assert a != GaussianMixture([0.31, 0.69], [-1.0, 2.0], [1.0, 0.5])
        cert = builder(PairEvaluation(a, b, default_params))
        assert cert.ledger.extra["branch"] == "identical-inputs"


class TestParams:
    def test_validation(self):
        for bad in (
            dict(p=0.5, q=2, epsilon=0.1),
            dict(p=2, q=1.0, epsilon=0.1),
            dict(p=2, q=2, epsilon=0.0),
            dict(p=math.inf, q=2, epsilon=0.1),
            dict(p=math.nan, q=2, epsilon=0.1),
            dict(p=2, q=math.inf, epsilon=0.1),
            dict(p=2, q=math.nan, epsilon=0.1),
        ):
            with pytest.raises(PreconditionError):
                BoundParams(**bad)

    def test_even_promotion(self):
        assert BoundParams(p=1, q=2, epsilon=0.5).p_even == 2
        assert BoundParams(p=2, q=2, epsilon=0.5).p_even == 2
        assert BoundParams(p=2.5, q=2, epsilon=0.5).p_even == 4
        assert BoundParams(p=3, q=2, epsilon=0.5).p_even == 4
        assert BoundParams(p=4, q=2, epsilon=0.5).p_even == 4


class TestPairEvaluation:
    def test_polynomial_certificate_alone_fits_no_exp_envelopes(
        self, std_normal, default_params, monkeypatch
    ):
        import tvrates.bounds as bmod

        def forbidden(*args, **kwargs):
            raise AssertionError("_exp_entry called")

        monkeypatch.setattr(bmod, "_exp_entry", forbidden)
        pair = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        assert polynomial_rate_certificate(pair).satisfied

    @pytest.mark.parametrize("integral", [math.inf, 1e308])
    def test_infinite_exp_integral_refused_per_law_and_per_pair(
        self, std_normal, default_params, monkeypatch, integral
    ):
        # inf is refused with the law's entries, 1e308 when the pair sums
        # two of them: neither reaches the ledger
        import tvrates.bounds as bmod

        monkeypatch.setattr(bmod, "_exp_entry", lambda stack, k: (1.0, integral, 1.0))
        pair = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        with pytest.raises(PreconditionError, match="c finite"):
            exponential_rate_certificate(pair)

    @pytest.mark.parametrize(
        "h, params",
        [
            (1e-3, BoundParams(p=2.0, q=2.0, epsilon=0.1)),  # rate branch
            (5.0, BoundParams(p=2.0, q=2.0, epsilon=0.1)),  # constant branch
            (0.1, BoundParams(p=3.0, q=2.0, epsilon=0.2)),  # odd p
        ],
    )
    def test_shared_evaluation_matches_fresh_ones(self, std_normal, h, params):
        b = gaussian(h, 1.0)
        builders = (
            polynomial_rate_certificate,
            exponential_rate_certificate,
            pointwise_certificate,
        )
        shared = PairEvaluation(std_normal, b, params)
        for build in builders:
            fresh = PairEvaluation(std_normal, b, params)
            assert build(shared).to_json() == build(fresh).to_json()

    @pytest.mark.parametrize(
        "h, params",
        [
            (1e-3, BoundParams(p=2.0, q=2.0, epsilon=0.1)),  # rate branch
            (5.0, BoundParams(p=2.0, q=2.0, epsilon=0.1)),  # constant branch
            (0.1, BoundParams(p=3.0, q=2.0, epsilon=0.2)),  # odd p
        ],
    )
    def test_one_ladder_matches_standalone_distances(self, std_normal, h, params):
        b = gaussian(h, 1.0)
        pair = PairEvaluation(std_normal, b, params)
        rho, tv = pair.distances
        assert rho == rho_p_distance(std_normal, b, params.p)
        assert tv == tv_mass(std_normal, b)
        assert (pair.rho, pair.tv) == (rho.value, tv.value)

    def test_envelope_overflow_is_a_typed_error(self, std_normal):
        # epsilon = 0.02 needs l ~ 300, whose frequency weights exceed a double
        pair = PairEvaluation(
            std_normal, gaussian(0.01, 1.0), BoundParams(2, 2, 0.02)
        )
        with pytest.raises(TvratesError, match="overflowed"):
            polynomial_rate_certificate(pair)

    @pytest.mark.parametrize("epsilon, order", [(0.045, 346), (0.04, 390), (0.03, 524)])
    def test_moment_overflow_is_a_typed_error(self, std_normal, epsilon, order):
        # the envelopes stay finite here, but a_{0,2l} overflows a double
        pair = PairEvaluation(
            std_normal, gaussian(0.01, 1.0), BoundParams(2, 2, epsilon)
        )
        with pytest.raises(TvratesError, match=f"order {order}"):
            polynomial_rate_certificate(pair)

    def test_pairs_share_law_evaluations(self, std_normal, default_params):
        grid = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params).grid
        ref = LawEvaluation(std_normal, grid)
        for h in (0.1, 0.01):
            b = gaussian(h, 1.0)
            shared = PairEvaluation.of_laws(ref, LawEvaluation(b, grid), default_params)
            fresh = PairEvaluation.of_laws(
                LawEvaluation(std_normal, grid), LawEvaluation(b, grid), default_params
            )
            for build in (polynomial_rate_certificate, exponential_rate_certificate,
                          pointwise_certificate):
                assert build(shared).to_json() == build(fresh).to_json()

    def test_law_evaluations_must_agree(self, std_normal, default_params):
        grid = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params).grid
        b = gaussian(0.1, 1.0)
        with pytest.raises(PreconditionError, match="grid"):
            PairEvaluation.of_laws(
                LawEvaluation(std_normal, grid), LawEvaluation(b, grid.refined()),
                default_params,
            )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_law_quantiles_match_one_order_calls(self, data, n):
        # one bisection serves both rule orders, each with its own stop;
        # means in +-50 are where a bisection on the joint widest bracket
        # moved bits
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        means = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
        variances = data.draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n))
        assert_law_quantiles_match_order_calls(GaussianMixture(
            weights / weights.sum(), [[m] for m in means], [[[v]] for v in variances]
        ))

    def test_law_quantiles_on_a_joint_stop_counterexample(self):
        # a bisection stopped on both orders' joint widest bracket moves the
        # 256-level order's bits on this mixture
        assert_law_quantiles_match_order_calls(GaussianMixture(
            [0.21744239624664927, 0.5843868775550007, 0.19817072619835005],
            [[-7.62066600415622], [-24.780299676523697], [10.346772766341019]],
            [[[5.062545801172223]], [[24.00404293712036]], [[3.4933291820422534]]],
        ))

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 3),
        q=st.floats(1.05, 6.0),
    )
    def test_gap_equals_wasserstein_1d_value(self, data, n, q):
        # the gap reads the 256-node rule alone; wasserstein_1d solves both
        # rule orders in one batch and takes its value from that rule
        laws = []
        for _ in range(2):
            weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
            means = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
            variances = data.draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n))
            laws.append(GaussianMixture(
                weights / weights.sum(), [[m] for m in means], [[[v]] for v in variances]
            ))
        a, b = laws
        pair = PairEvaluation(a, b, BoundParams(2.0, q, 0.1))
        assert pair.gap == wasserstein_1d(a, b, q).value

    def test_solve_matches_abs_moment_and_keeps_overflow_typed(
        self, std_normal, bimodal
    ):
        # epsilon = 0.1 reads E|X|^4 and E|X|^150, epsilon = 0.045 E|X|^4
        # and E|X|^346, which leaves the float range; a law gets only the
        # orders of its own pairs
        grid = common_grid(std_normal, bimodal)
        evs = [LawEvaluation(law, grid) for law in (std_normal, bimodal, bimodal)]
        pairs = [
            PairEvaluation.of_laws(evs[0], evs[1], BoundParams(2, 2, 0.1)),
            PairEvaluation.of_laws(evs[0], evs[2], BoundParams(2, 2, 0.045)),
        ]
        PairEvaluation.solve(pairs + pairs[:1])
        for ev in evs:
            np.testing.assert_array_equal(
                ev._kept["quantiles"], ev.law.quantile(normal_levels(256))
            )
        for ev, orders in zip(evs, ((4, 150), (4, 150), (4,))):
            for m in orders:
                assert ev._kept["abs_moment", m] == ev.law.abs_moment(m)
                assert ev.abs_moment(m) == ev.law.abs_moment(m)
        assert ("abs_moment", 150) not in evs[2]._kept
        for ev in evs[::2]:
            assert ("abs_moment", 346) not in ev._kept
            with pytest.raises(PreconditionError, match="order 346"):
                ev.abs_moment(346)

    def test_solved_pair_needs_no_recursion_for_its_polynomial_moments(
        self, std_normal, default_params, monkeypatch
    ):
        # the batch and the certificate read their moment orders from one
        # helper: an order that drifted apart would run the recursion again
        import tvrates.distributions as dmod

        pair = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        PairEvaluation.solve([pair])
        recursion, orders = dmod._norm_sq_moment, []

        def counting(m, v, k):
            orders.append(2 * k)
            return recursion(m, v, k)

        monkeypatch.setattr(dmod, "_norm_sq_moment", counting)
        # a batch with nothing left to fill runs no recursion at all
        PairEvaluation.solve([pair])
        assert orders == []
        cert = polynomial_rate_certificate(pair)
        assert sorted(cert.ledger.moment_bounds) == [4, 150]
        # nor does any certificate: C°_2 reads E|X|^2 and E|X|^4, the
        # trivial bound E|X|^2, all from the batch
        exponential_rate_certificate(pair)
        pointwise_certificate(pair)
        assert orders == []

    def test_default_sweep_law_quantiles_match_one_order_calls(self):
        # each sweep evaluates its reference law once and each row's law
        laws = []
        for sc in default_scenarios():
            pairs = [perturb_pair(sc, h) for h in sc.h_grid]
            laws += [pairs[0][0]] + [b for _, b in pairs]
        assert len(laws) == 24
        for law in laws:
            assert_law_quantiles_match_order_calls(law)
