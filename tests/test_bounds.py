import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mc_pair_moment
from tvrates import (
    BoundParams,
    PairEvaluation,
    PolyEnvelopeTable,
    PreconditionError,
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
    c_bar,
    c_hat,
    c_ring,
    choose_M,
    gamma_k,
    h_p_const,
    theta_exponent,
)
from tvrates.bounds import LawEvaluation
from tvrates.distributions import GaussianMixture, common_grid
from tvrates.harness import default_scenarios, perturb_pair
from tvrates.transport import normal_levels


def assert_law_quantiles_match_order_calls(law):
    ev = LawEvaluation(law, common_grid(law, law), 2)
    for n in (128, 256):
        np.testing.assert_array_equal(ev.quantiles(n), law.quantile(normal_levels(n)))


class TestGamma:
    def test_worked_values(self):
        # 2 sqrt(pi) / (Gamma(1/2) * 1) = 2;  2 sqrt(pi) / (sqrt(pi) * 2) = 1
        np.testing.assert_allclose(gamma_k(2, 1), 2.0)
        np.testing.assert_allclose(gamma_k(3, 1), 1.0)
        np.testing.assert_allclose(gamma_k(4, 2), math.pi)

    def test_divergent_orders_rejected(self):
        for k, d in ((1, 1), (2, 2), (0, 1)):
            with pytest.raises(PreconditionError):
                gamma_k(k, d)

    def test_decreasing_in_k(self):
        vals = [gamma_k(k, 2) for k in range(3, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_tail_integral_oracle(self):
        # 1-D: int_{|u|>=M} |u|^{-k} du = 2 M^{1-k}/(k-1)
        from scipy import integrate

        for k, m_cut in ((3, 1.5), (5, 2.0)):
            oracle, _ = integrate.quad(lambda u: 2 * u ** (-k), m_cut, np.inf)
            np.testing.assert_allclose(
                gamma_k(k, 1) / m_cut ** (k - 1), oracle, rtol=1e-10
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


class TestHp:
    def test_p2_is_one_for_any_dimension(self):
        for d in (1, 2, 5):
            assert h_p_const(2, d) == 1.0

    def test_p4_d2(self):
        assert h_p_const(4, 2) == 2.0

    def test_p6_d3_tight_on_sphere(self):
        assert h_p_const(6, 3) == 9.0
        # brute numeric max of |x|^6 / sum x_j^6 over the unit sphere
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200000, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        ratio = 1.0 / np.sum(x**6, axis=1)
        assert ratio.max() <= 9.0 + 1e-9
        assert ratio.max() >= 9.0 * 0.999

    def test_odd_rejected(self):
        with pytest.raises(PreconditionError):
            h_p_const(3, 1)


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


def _const_table(value, max_k=2, max_l=8):
    return PolyEnvelopeTable(
        "frequency", max_k, max_l, np.full((max_k + 1, max_l + 1), float(value))
    )


class TestChatCbar:
    def test_worked_example(self):
        # l=3, p=2, C-ring=10, b=5, d=1: h_2 = 1, prefactor 2/(2 pi),
        # first term 10 * sqrt(pi)/Gamma(3/2) = 20, gamma_3 = 1 -> 25/pi
        tab = _const_table(5.0)
        np.testing.assert_allclose(c_hat(3, 2, 10.0, tab, 1), 25.0 / math.pi)

    def test_degenerate_ledger(self):
        tab = PolyEnvelopeTable("frequency", 2, 4, np.zeros((3, 5)))
        assert c_hat(3, 2, 0.0, tab, 1) == 0.0

    def test_second_worked_example(self):
        # l=4, p=2, C-ring=1, b=1, d=1: gamma_4 = 2/3 -> (1/pi)(2 + 2/3)
        tab = _const_table(1.0)
        np.testing.assert_allclose(
            c_hat(4, 2, 1.0, tab, 1), (1.0 / math.pi) * (8.0 / 3.0)
        )

    def test_c_bar_assembly(self):
        # Cbar = Chat * vball + 2 sqrt(a_2p a_2l)
        got = c_bar(3, 2, 5.0, 4.0, 9.0, 1)
        np.testing.assert_allclose(got, 5.0 * 2.0 + 2.0 * 6.0)

    def test_missing_coverage_rejected(self):
        tab = _const_table(1.0, max_k=2, max_l=3)
        with pytest.raises(PreconditionError):
            c_hat(5, 2, 1.0, tab, 1)


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
        params = BoundParams(p=3.0, q=2.0, epsilon=0.2, d=1)
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
        assert c1.to_json_str() == c2.to_json_str()

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
        pair = poly_envelope(char_fn_grid(fa), 2, 80).combine_max(
            poly_envelope(char_fn_grid(fb), 2, 80)
        )
        l = choose_l(default_params.epsilon, 2, 1)
        chat = c_hat(l, 2, c_ring(2, 2.0, std_normal.abs_moment, b.abs_moment),
                     pair, 1)
        gap = tv.wasserstein_1d(std_normal, b, 2).value
        x = grid.mesh()[0]
        lhs = np.abs((std_normal.pdf(x) - b.pdf(x)) * x**2).max()
        assert lhs <= chat * gap ** (1.0 - 2.0 / (l + 1.0))

    def test_multivariate_pairs_rejected(self):
        import numpy as np_

        g2 = gaussian([0.0, 0.0], np_.eye(2))
        params = BoundParams(p=2.0, q=2.0, epsilon=0.1, d=2)
        with pytest.raises(PreconditionError, match="dimension one"):
            polynomial_rate_certificate(
                PairEvaluation(g2, g2.translate([0.1, 0.0]), params)
            )

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
        x = grid.mesh()[0]
        direct = np.abs((std_normal.pdf(x) - b.pdf(x)) * x**2)
        assert abs(np.abs(vals).max() - direct.max()) <= 1e-3

    def test_first_derivative_multiindex(self, std_normal, default_params):
        cert = pointwise_certificate(
            PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params), alpha=(1,)
        )
        assert cert.satisfied
        expected = (cert.l - 1 - 1) / (cert.l + 1.0)
        np.testing.assert_allclose(cert.ledger.extra["exponent"], expected)

    def test_regime_tag(self, std_normal, default_params):
        cert = pointwise_certificate(
            PairEvaluation(std_normal, gaussian(0.05, 1.0), default_params)
        )
        assert cert.to_json()["regime"] == "pointwise"


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

    def test_chain_constants_recorded(self, std_normal, default_params):
        cert = exponential_rate_certificate(
            PairEvaluation(std_normal, gaussian(1e-3, 1.0), default_params)
        )
        for key in ("r_p", "c_p", "r_0", "c_0", "c_sharp", "lambda", "kappa_p",
                    "c2_weighted", "c2_flat", "c3_weighted", "c3_flat",
                    "far_weighted", "far_flat", "c4_total", "M1_weighted", "M2"):
            assert key in cert.ledger.extra


class TestParams:
    def test_validation(self):
        for bad in (
            dict(p=0.5, q=2, epsilon=0.1, d=1),
            dict(p=2, q=1.0, epsilon=0.1, d=1),
            dict(p=2, q=2, epsilon=0.0, d=1),
            dict(p=2, q=2, epsilon=0.1, d=0),
            dict(p=math.inf, q=2, epsilon=0.1, d=1),
            dict(p=math.nan, q=2, epsilon=0.1, d=1),
            dict(p=2, q=math.inf, epsilon=0.1, d=1),
            dict(p=2, q=math.nan, epsilon=0.1, d=1),
            dict(p=2, q=2, epsilon=0.1, d=1.5),
            dict(p=2, q=2, epsilon=0.1, d=math.inf),
        ):
            with pytest.raises(PreconditionError):
                BoundParams(**bad)

    def test_even_promotion(self):
        assert BoundParams(p=1, q=2, epsilon=0.5, d=1).p_even == 2
        assert BoundParams(p=2, q=2, epsilon=0.5, d=1).p_even == 2
        assert BoundParams(p=2.5, q=2, epsilon=0.5, d=1).p_even == 4
        assert BoundParams(p=3, q=2, epsilon=0.5, d=1).p_even == 4
        assert BoundParams(p=4, q=2, epsilon=0.5, d=1).p_even == 4


class TestPairEvaluation:
    def test_polynomial_certificate_alone_fits_no_exp_envelopes(
        self, std_normal, default_params, monkeypatch
    ):
        import tvrates.bounds as bmod

        def forbidden(*args, **kwargs):
            raise AssertionError("exp_envelope called")

        monkeypatch.setattr(bmod, "exp_envelope", forbidden)
        pair = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params)
        assert polynomial_rate_certificate(pair).satisfied

    @pytest.mark.parametrize(
        "h, params",
        [
            (1e-3, BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1)),  # rate branch
            (5.0, BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1)),  # constant branch
            (0.1, BoundParams(p=3.0, q=2.0, epsilon=0.2, d=1)),  # odd p
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
            assert build(shared).to_json_str() == build(fresh).to_json_str()

    @pytest.mark.parametrize(
        "h, params",
        [
            (1e-3, BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1)),  # rate branch
            (5.0, BoundParams(p=2.0, q=2.0, epsilon=0.1, d=1)),  # constant branch
            (0.1, BoundParams(p=3.0, q=2.0, epsilon=0.2, d=1)),  # odd p
        ],
    )
    def test_one_ladder_matches_standalone_distances(self, std_normal, h, params):
        b = gaussian(h, 1.0)
        pair = PairEvaluation(std_normal, b, params)
        g = pair.grid
        rho, tv = pair.distances
        assert rho == rho_p_distance(std_normal, b, params.p, grid=g)
        assert tv == tv_mass(std_normal, b, grid=g)
        assert (pair.rho, pair.tv) == (rho.value, tv.value)

    def test_envelope_overflow_is_a_typed_error(self, std_normal):
        # epsilon = 0.02 needs l ~ 300, whose frequency weights exceed a double
        pair = PairEvaluation(
            std_normal, gaussian(0.01, 1.0), BoundParams(2, 2, 0.02, 1)
        )
        with pytest.raises(TvratesError, match="overflowed"):
            polynomial_rate_certificate(pair)

    @pytest.mark.parametrize("epsilon, order", [(0.045, 346), (0.04, 390), (0.03, 524)])
    def test_moment_overflow_is_a_typed_error(self, std_normal, epsilon, order):
        # the envelopes stay finite here, but a_{0,2l} overflows a double
        pair = PairEvaluation(
            std_normal, gaussian(0.01, 1.0), BoundParams(2, 2, epsilon, 1)
        )
        with pytest.raises(TvratesError, match=f"order {order}"):
            polynomial_rate_certificate(pair)

    def test_pairs_share_law_evaluations(self, std_normal, default_params):
        grid = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params).grid
        ref = LawEvaluation(std_normal, grid, default_params.p_even)
        for h in (0.1, 0.01):
            b = gaussian(h, 1.0)
            shared = PairEvaluation.of_laws(
                ref, LawEvaluation(b, grid, default_params.p_even), default_params
            )
            fresh = PairEvaluation(std_normal, b, default_params, grid)
            for build in (polynomial_rate_certificate, exponential_rate_certificate,
                          pointwise_certificate):
                assert build(shared).to_json_str() == build(fresh).to_json_str()

    def test_law_evaluations_must_agree(self, std_normal, default_params):
        grid = PairEvaluation(std_normal, gaussian(0.1, 1.0), default_params).grid
        b = gaussian(0.1, 1.0)
        with pytest.raises(PreconditionError):
            PairEvaluation.of_laws(
                LawEvaluation(std_normal, grid, 2), LawEvaluation(b, grid.refined(), 2),
                default_params,
            )
        with pytest.raises(PreconditionError):
            PairEvaluation.of_laws(
                LawEvaluation(std_normal, grid, 4), LawEvaluation(b, grid, 4),
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

    def test_default_sweep_law_quantiles_match_one_order_calls(self):
        # each sweep evaluates its reference law once and each row's law
        laws = []
        for sc in default_scenarios():
            pairs = [perturb_pair(sc, h) for h in sc.h_grid]
            laws += [pairs[0][0]] + [b for _, b in pairs]
        assert len(laws) == 24
        for law in laws:
            assert_law_quantiles_match_order_calls(law)
