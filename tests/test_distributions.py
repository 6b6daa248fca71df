import json
import math
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

from reference import (
    mixture_cdf_last_axis,
    mixture_pdf,
    mixture_pdf_last_axis,
    norm_sq_moment_loop,
    norm_sq_moment_scalar,
    quad_abs_moment,
    quantile_bisection,
)
from tvrates import (
    AtomSet,
    GaussianMixture,
    MassDefectError,
    PreconditionError,
    SpaceGrid,
    common_grid,
    discretize,
    gaussian,
    wasserstein_1d,
)
from tvrates.distributions import (
    _even_moments,
    _norm_sq_moment,
    mixture_quantiles,
    tail_mass_bound,
)
from tvrates.transport import normal_levels

# mixtures on which a bisection stopped on the joint widest bracket of both
# rule orders moves the 256-level order's bits
JOINT_STOP_COUNTEREXAMPLES = (
    GaussianMixture(
        [0.5163967613965685, 0.31556808957962607, 0.16803514902380534],
        [[12.538395932187498], [-15.408250603117935], [-29.86767266623248]],
        [[[3.3179691306252734]], [[7.990259700712973]], [[24.488523343726893]]],
    ),
    GaussianMixture(
        [0.21744239624664927, 0.5843868775550007, 0.19817072619835005],
        [[-7.62066600415622], [-24.780299676523697], [10.346772766341019]],
        [[[5.062545801172223]], [[24.00404293712036]], [[3.4933291820422534]]],
    ),
)


@st.composite
def mixtures_1d(draw, max_k=3):
    """1-D mixtures with K <= max_k, means in +-50 and variances in [0.05, 25]."""
    n = draw(st.integers(1, max_k))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    means = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    variances = draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n))
    return GaussianMixture(
        weights / weights.sum(), [[m] for m in means], [[[v]] for v in variances]
    )


class TestDensity:
    def test_standard_normal_peak(self, std_normal):
        np.testing.assert_allclose(std_normal.pdf(0.0), 1.0 / math.sqrt(2 * math.pi))

    def test_symmetric_bimodal_at_origin(self, bimodal):
        # two-term sum: 2 * (1/2) * phi(1) = e^{-1/2} / sqrt(2 pi)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(bimodal.pdf(0.0), expected, rtol=1e-14)
        oracle = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(bimodal.pdf(0.0), oracle(np.array(0.0)))

    def test_dimension_mismatch_rejected(self):
        # mixtures are one-dimensional: a 2-D document, 2-D means or 2 x 2
        # covariances are each refused
        planar = {"d": 2, "components": [{"w": 1.0, "mean": [0.0], "cov": [[1.0]]}]}
        with pytest.raises(PreconditionError, match="field d must be 1"):
            GaussianMixture.from_json(planar)
        with pytest.raises(PreconditionError, match="one-dimensional"):
            GaussianMixture([1.0], [[0.0, 0.0]], [1.0])
        with pytest.raises(PreconditionError, match="one-dimensional"):
            GaussianMixture([1.0], [0.0], [np.eye(2)])
        with pytest.raises(PreconditionError, match="one-dimensional"):
            gaussian([0.0, 0.0], np.eye(2))

    def test_far_from_every_component_is_exactly_zero(self, std_normal):
        # z * z overflows there; exp(-inf) = 0 is the exact value, and the
        # overflow raises no warning
        assert std_normal.pdf(1e200) == 0.0
        np.testing.assert_array_equal(
            std_normal.pdf(np.array([-1e200, 0.0, 1e300])),
            [0.0, std_normal.pdf(0.0), 0.0],
        )

    def test_vectorized_matches_oracle(self, bimodal):
        xs = np.linspace(-5, 5, 101)
        oracle = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(bimodal.pdf(xs), oracle(xs), rtol=1e-12)


class TestComponentSums:
    """The density, the CDF and the bisection add the components' rows left
    to right; up to 7 components that is numpy's own last-axis order."""

    points = st.lists(st.floats(-120.0, 120.0), min_size=1, max_size=40)

    @settings(max_examples=80, deadline=None)
    @given(law=mixtures_1d(max_k=7), x=points, scalar=st.floats(-120.0, 120.0))
    def test_pdf_and_cdf_match_last_axis_sum_bit_for_bit(self, law, x, scalar):
        for shape in ((len(x),), (1, len(x)), ()):
            pts = np.reshape(x, shape) if shape else scalar
            for got, want in ((law.pdf(pts), mixture_pdf_last_axis(law, pts)),
                              (law.cdf(pts), mixture_cdf_last_axis(law, pts))):
                # down to the sign of a zero
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.shape(got) == np.shape(want)

    @settings(max_examples=40, deadline=None)
    @given(law=mixtures_1d(max_k=7), n_nodes=st.sampled_from([128, 256]))
    def test_bisection_matches_last_axis_cdf_bisection(self, law, n_nodes):
        u = normal_levels(n_nodes)
        want = quantile_bisection(law, u, cdf=lambda x: mixture_cdf_last_axis(law, x))
        np.testing.assert_array_equal(law.quantile(u), want)
        np.testing.assert_array_equal(mixture_quantiles([(law, u)])[0], want)


class TestMoments:
    def test_gaussian_second_and_fourth(self, std_normal):
        np.testing.assert_allclose(std_normal.abs_moment(2), 1.0)
        np.testing.assert_allclose(std_normal.abs_moment(4), 3.0)

    def test_bimodal_second_moment(self, bimodal):
        # variance decomposition: E X^2 = 1 (within) + 1 (between) = 2
        np.testing.assert_allclose(bimodal.abs_moment(2), 2.0, rtol=1e-12)
        oracle = quad_abs_moment(mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0]), 2)
        np.testing.assert_allclose(bimodal.abs_moment(2), oracle, rtol=1e-8)

    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0, 3.5, 7.0])
    def test_noninteger_orders_match_quadrature(self, p):
        dist = GaussianMixture([0.3, 0.7], [[-2.0], [0.5]], [[[0.25]], [[2.0]]])
        oracle = quad_abs_moment(
            mixture_pdf([0.3, 0.7], [-2.0, 0.5], [0.5, math.sqrt(2.0)]), p
        )
        np.testing.assert_allclose(dist.abs_moment(p), oracle, rtol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(-5.0, 5.0), root=st.floats(-2.0, 2.0),
           floor=st.floats(0.05, 4.0), k=st.integers(0, 170))
    def test_norm_sq_moment_matches_loop_bit_for_bit(self, m, root, floor, k):
        # the reference runs the matrix recursion on the 1 x 1 case
        v = root * root + floor
        with np.errstate(over="ignore", invalid="ignore"):
            want = norm_sq_moment_loop(np.array([m]), np.array([[v]]), k)
            got = _norm_sq_moment(m, v, k)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.lists(
            st.tuples(st.floats(-50.0, 50.0), st.floats(0.05, 400.0)),
            min_size=1, max_size=6,
        ),
        k=st.integers(0, 200),
    )
    def test_vectorized_recursion_matches_scalar_per_component(self, params, k):
        # large variances and orders leave the float range (inf), and past
        # k ~ 170 the cumulant factorials do (OverflowError): both forms
        # must agree there too
        m, v = (np.array(c) for c in zip(*params))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = [norm_sq_moment_scalar(a, b, k) for a, b in params]
            except OverflowError:
                with pytest.raises(OverflowError):
                    _norm_sq_moment(m, v, k)
                return
            got = _norm_sq_moment(m, v, k)
        assert got.shape == m.shape
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        laws=st.lists(mixtures_1d(), min_size=1, max_size=4),
        p=st.sampled_from([0, 2, 4, 150, 310, 400]),
    )
    def test_batched_even_moments_match_abs_moment(self, laws, p):
        # a law met twice, and a blend that shares components with others
        first, last = laws[0], laws[-1]
        blend = GaussianMixture(
            np.concatenate([first.weights, last.weights]) / 2.0,
            np.concatenate([first.means, last.means]),
            np.concatenate([first.covs, last.covs]),
        )
        laws = laws + [first, blend]
        got = _even_moments(laws, p)
        assert len(got) == len(laws)
        for law, x in zip(laws, got):
            try:
                want = law.abs_moment(p)
            except PreconditionError:
                assert x is None
            else:
                assert x == want
            if p and x is not None:
                # abs_moment is the batch of one: check it against the
                # weighted sum of the scalar recursion, component by component
                total = 0.0
                with np.errstate(over="ignore", invalid="ignore"):
                    for w, m, v in zip(law.weights, law.means[:, 0], law.covs[:, 0, 0]):
                        total += w * norm_sq_moment_scalar(m, v, p // 2)
                assert x == total

    @pytest.mark.parametrize("p", [310, 346, 390])
    def test_overflowing_even_moment_is_typed_error(self, std_normal, p):
        # E|X|^310 = 10^319.0 lies past the float range; at 346 and beyond
        # the cumulant factorials themselves do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=f"order {p}"):
                std_normal.abs_moment(p)

    @pytest.mark.parametrize(
        "method, arg",
        [
            ("quantile", math.nan),
            ("abs_moment", math.nan),
            ("abs_moment", math.inf),
            ("exp_abs_moment", math.nan),
            ("exp_abs_moment", math.inf),
            ("exp_abs_moment", 800.0),
        ],
    )
    def test_non_finite_kernel_input_is_typed_error(self, std_normal, method, arg):
        # nan used to fall through every range check, inf gave inf or nan,
        # and exp(800^2/2) overflowed math.exp with a bare OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError):
                getattr(std_normal, method)(arg)

    def test_exp_abs_moment_matches_quadrature(self, bimodal):
        from scipy import integrate

        oracle, _ = integrate.quad(
            lambda x: math.exp(1.3 * abs(x))
            * mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])(np.array(x)),
            -40,
            40,
            limit=400,
        )
        np.testing.assert_allclose(bimodal.exp_abs_moment(1.3), oracle, rtol=1e-10)


class TestDiscretize:
    def test_ten_sigma_box_has_negligible_defect(self, std_normal):
        f = discretize(std_normal, SpaceGrid(-10, 10, 1024))
        assert f.mass_defect < 1e-20
        np.testing.assert_allclose(f.mass(), 1.0, atol=1e-12)

    def test_small_box_raises_with_normal_cdf_defect(self, std_normal):
        # defect oracle: 1 - (2 Phi(1) - 1) = 0.31731...
        with pytest.raises(MassDefectError) as exc:
            discretize(std_normal, SpaceGrid(-1, 1, 64))
        expected = 1.0 - (2 * norm.cdf(1.0) - 1.0)
        np.testing.assert_allclose(exc.value.defect, expected, rtol=1e-10)

    def test_tail_bound_dominates_true_defect(self, std_normal):
        bound = tail_mass_bound(std_normal, (-3.0, 3.0))
        true_defect = 1.0 - (norm.cdf(3.0) - norm.cdf(-3.0))
        assert bound >= true_defect - 1e-15

    @pytest.mark.parametrize("p", [0, 1, 2, 4])
    def test_grid_moments_recover_analytic(self, bimodal, p):
        f = discretize(bimodal, common_grid(bimodal, bimodal, 10.0, 1024))
        riemann = np.sum(f.grid.radii() ** p * f.values) * f.grid.spacing
        np.testing.assert_allclose(riemann, bimodal.abs_moment(p), atol=1e-4)

    def test_resolution_must_be_power_of_two(self, std_normal):
        with pytest.raises(PreconditionError):
            discretize(std_normal, SpaceGrid(-10, 10, 1000))

    @pytest.mark.parametrize("box_sigmas", [1e308, math.inf, math.nan])
    def test_box_past_float_range_names_box_sigmas(self, std_normal, box_sigmas):
        with pytest.raises(PreconditionError, match="box_sigmas"):
            common_grid(std_normal, std_normal, box_sigmas)

    @pytest.mark.parametrize(
        "lo, hi", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.nan)]
    )
    def test_grid_box_must_be_finite(self, lo, hi):
        with pytest.raises(PreconditionError, match="finite positive length"):
            SpaceGrid(lo, hi, 16)


class TestSmooth:
    def test_gaussian_convolution(self, std_normal):
        sm = std_normal.smooth(1.0)
        np.testing.assert_allclose(sm.covs[0, 0, 0], 2.0)

    def test_near_atom(self):
        spike = gaussian(3.0, 1e-12)
        sm = spike.smooth(1.0)
        np.testing.assert_allclose(sm.covs[0, 0, 0], 1.0, rtol=1e-10)
        np.testing.assert_allclose(sm.means[0, 0], 3.0)

    def test_componentwise_variance_addition_via_char_fn(self):
        mix = GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[0.25]], [[0.25]]])
        sm = mix.smooth(0.5)
        np.testing.assert_allclose(sm.covs[:, 0, 0], [0.5, 0.5])
        # characteristic-function product oracle: phi_sm = phi * e^{-s^2 u^2/2}
        us = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(
            sm.char_fn(us),
            mix.char_fn(us) * np.exp(-0.125 * us**2),
            atol=1e-14,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        s1=st.floats(0.1, 3.0),
        s2=st.floats(0.1, 3.0),
    )
    def test_smoothing_composes_in_quadrature(self, s1, s2):
        base = GaussianMixture([0.4, 0.6], [[0.0], [2.0]], [[[1.0]], [[0.5]]])
        twice = base.smooth(s1).smooth(s2)
        once = base.smooth(math.sqrt(s1 * s1 + s2 * s2))
        np.testing.assert_allclose(twice.covs, once.covs, rtol=1e-12)
        np.testing.assert_allclose(twice.means, once.means)


class TestQuantile:
    def test_median_by_symmetry(self, std_normal):
        assert abs(std_normal.quantile(0.5)) < 1e-12

    def test_upper_tail_against_scipy(self, std_normal):
        np.testing.assert_allclose(
            std_normal.quantile(0.975), norm.ppf(0.975), atol=1e-10
        )

    def test_far_lower_tail_grows_the_bracket(self, std_normal):
        # 1e-30 lies below the mean - 10 sd bracket, which must widen
        np.testing.assert_allclose(
            std_normal.quantile(1e-30), special.ndtri(1e-30), rtol=1e-12
        )

    def test_median_equals_mean_for_single_gaussian(self):
        g = gaussian(3.0, 4.0)
        np.testing.assert_allclose(g.quantile(0.5), 3.0, atol=1e-10)

    def test_cdf_inverse_contract(self, bimodal):
        for u in (0.01, 0.3, 0.77, 0.999):
            x = bimodal.quantile(u)
            assert abs(bimodal.cdf(x) - u) <= 1e-12

    def test_nondecreasing_on_dense_grid(self, bimodal):
        us = np.linspace(1e-4, 1 - 1e-4, 1000)
        xs = bimodal.quantile(us)
        assert np.all(np.diff(xs) >= 0)

    def test_domain_guard(self, std_normal):
        for u in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(PreconditionError):
                std_normal.quantile(u)
        with pytest.raises(PreconditionError):
            std_normal.quantile([0.5, 1.0])

    def test_weights_short_of_one_terminate(self, std_normal, bimodal):
        # weights summing to 1 - 5e-13 pass the constructor, so the CDF never
        # reaches the top quadrature level; bracket expansion must still end
        short = GaussianMixture(
            [0.5, 0.4999999999995], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]
        )
        # eight weights whose left-to-right sum, the top of the CDF, is
        # 1 - 2^-53 while numpy's pairwise sum is 1: the top level
        # 1 - 1e-16 of the weight sum lies at the top of the CDF
        eight = GaussianMixture([0.05] * 6 + [0.35] * 2, np.arange(8.0), np.ones(8))

        def deadline(signum, frame):
            raise TimeoutError("the quantile solver did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            got = wasserstein_1d(std_normal, short, 2).value
            top = eight.quantile(1.0 - 1e-16)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        want = wasserstein_1d(std_normal, bimodal, 2).value
        np.testing.assert_allclose(got, want, rtol=1e-9)
        assert abs(eight.cdf(top) - (1.0 - 1e-16)) <= 1e-12

    @pytest.mark.parametrize("mean", [1e18, -1e18, 1e300])
    def test_bracket_below_float_resolution_terminates(self, std_normal, mean):
        # mean +- 10 sd rounds to one double, so the bracket cannot expand
        def deadline(signum, frame):
            raise TimeoutError("quantile did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(PreconditionError, match="quantile bracket"):
                gaussian(mean, 1.0).quantile(0.3)
            with pytest.raises(PreconditionError, match="quantile bracket"):
                wasserstein_1d(std_normal, gaussian(mean, 1.0), 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_largest_resolvable_mean_still_solves(self):
        # at 1e17 the bracket keeps a few ulps, and the solver returns
        x = gaussian(1e17, 1.0).quantile(0.3)
        assert abs(x - 1e17) <= 64.0

    def test_upper_bracket_grows_to_a_far_narrow_component(self):
        # mean + 10 sd of the far component rounds to 1e12, where the CDF is
        # 0.75: the bracket must grow to [-10, 2e12 + 10] before it holds 0.9
        law = GaussianMixture([0.5, 0.5], [0.0, 1e12], [1.0, 1e-16])
        assert law.cdf(1e12) == 0.75
        u = np.array([0.9])
        x = law.quantile(u)
        np.testing.assert_array_equal(x, quantile_bisection(law, u))
        tol = 1e-14 * (2e12 + 10.0)
        assert law.cdf(x[0] - tol) < 0.9 <= law.cdf(x[0] + tol)


    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_bisection_matches_where_loop_bit_for_bit(self, data, n):
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        means = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
        variances = data.draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n))
        law = GaussianMixture(
            weights / weights.sum(),
            [[m] for m in means],
            [[[v]] for v in variances],
        )
        for n_nodes in (128, 256):
            u = normal_levels(n_nodes)
            np.testing.assert_array_equal(law.quantile(u), quantile_bisection(law, u))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3), rows=st.integers(1, 4))
    def test_duplicated_unsorted_2d_levels_match_where_loop(self, data, n, rows):
        # each distinct level is bisected once and scattered back; duplicates,
        # order and shape must not move a bit, nor may a second item
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        means = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
        variances = data.draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n))
        law = GaussianMixture(
            weights / weights.sum(),
            [[m] for m in means],
            [[[v]] for v in variances],
        )
        pool = st.sampled_from(normal_levels(128).tolist() + [0.5, 0.999]) | st.floats(
            1e-16, 1.0 - 1e-16
        )
        cols = data.draw(st.integers(1, 12))
        u = np.array(data.draw(st.lists(pool, min_size=rows * cols, max_size=rows * cols)))
        u = u.reshape(rows, cols)
        np.testing.assert_array_equal(law.quantile(u), quantile_bisection(law, u))
        v = np.concatenate([u.ravel(), u.ravel()[::-1]])
        got_u, got_v = mixture_quantiles([(law, u), (law, v)])
        np.testing.assert_array_equal(got_u, quantile_bisection(law, u))
        np.testing.assert_array_equal(got_v, quantile_bisection(law, v))

    def test_tuple_items_keep_their_own_stopping_test(self):
        # on this mixture one bisection of both rule orders' levels, stopped
        # on their joint widest bracket, runs the 256-level order one
        # iteration past its own stop, which moves its bits
        law = JOINT_STOP_COUNTEREXAMPLES[0]
        u1, u2 = normal_levels(128), normal_levels(256)
        merged = law.quantile(np.concatenate([u1, u2]))
        assert not np.array_equal(merged[128:], law.quantile(u2))
        got1, got2 = mixture_quantiles([(law, u1), (law, u2)])
        np.testing.assert_array_equal(got1, quantile_bisection(law, u1))
        np.testing.assert_array_equal(got2, quantile_bisection(law, u2))

    def test_scalar_and_empty_levels(self, bimodal):
        assert isinstance(bimodal.quantile(0.3), float)
        assert bimodal.quantile(np.empty((0, 2))).shape == (0, 2)
        first, second = mixture_quantiles([(bimodal, []), (bimodal, 0.3)])
        assert first.shape == (0,) and second == bimodal.quantile(0.3)
        # a tuple of levels is an array of levels
        np.testing.assert_array_equal(
            bimodal.quantile((0.3, 0.7)), bimodal.quantile(np.array([0.3, 0.7]))
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batched_solver_matches_per_law_quantile(self, data):
        # laws of mixed component counts in one batch, a law met twice, and
        # rule-order, duplicated, scalar and empty levels: every item must
        # equal its law's own quantile call and the np.where oracle
        # K up to 10 pads 1-component laws past numpy's 7-component switch
        pool = st.one_of(
            mixtures_1d(), mixtures_1d(max_k=10),
            st.sampled_from(JOINT_STOP_COUNTEREXAMPLES),
        )
        laws = data.draw(st.lists(pool, min_size=1, max_size=5))
        level = st.floats(1e-16, 1.0 - 1e-16)
        levels = st.one_of(
            st.sampled_from([normal_levels(128), normal_levels(256)]),
            st.lists(level, max_size=12).map(lambda v: np.array(v + v[::-1])),
            level,
            st.just(np.empty(0)),
        )
        items = [(law, data.draw(levels)) for law in laws]
        items += [(laws[0], data.draw(levels))]
        got = mixture_quantiles(items)
        assert len(got) == len(items)
        for (law, u), x in zip(items, got):
            want = law.quantile(u)
            assert type(x) is type(want)
            np.testing.assert_array_equal(x, want)
            if np.size(u):
                np.testing.assert_array_equal(x, quantile_bisection(law, np.asarray(u)))

    @pytest.mark.parametrize("law", JOINT_STOP_COUNTEREXAMPLES)
    def test_batched_rule_orders_on_joint_stop_counterexamples(self, law, bimodal):
        # each item keeps its own stop even beside other laws of its K
        u1, u2 = normal_levels(128), normal_levels(256)
        other = GaussianMixture([0.3, 0.7], [[40.0], [-3.0]], [[[2.0]], [[0.5]]])
        items = [(law, u1), (bimodal, u1), (law, u2), (other, u2), (other, 0.5)]
        got = mixture_quantiles(items)
        for (item_law, u), x in zip(items, got):
            np.testing.assert_array_equal(x, quantile_bisection(item_law, np.asarray(u)))

    def test_batched_solver_rejects_bad_items(self, std_normal):
        with pytest.raises(PreconditionError):
            mixture_quantiles([(std_normal, 0.5), (std_normal, [0.5, math.nan])])
        assert mixture_quantiles([]) == []


class TestNormalUfuncs:
    """The mixture CDF, tail bound and auto box call scipy.special's normal
    ufuncs, which scipy.stats.norm wraps: the values are the same bits."""

    def test_cdf_matches_norm_cdf(self, bimodal):
        xs = np.linspace(-40.0, 40.0, 2001)
        z = (xs[:, None] - bimodal.means[:, 0]) / np.sqrt(bimodal.covs[:, 0, 0])
        want = np.sum(bimodal.weights * norm.cdf(z), axis=-1)
        assert np.array_equal(bimodal.cdf(xs), want)

    def test_tail_bound_and_box_match_norm(self, bimodal):
        lo, hi = -3.5, 2.0
        m, s = bimodal.means[:, 0], np.sqrt(bimodal.covs[:, 0, 0])
        tails = norm.cdf((lo - m) / s) + norm.sf((hi - m) / s)
        want = float(np.sum(bimodal.weights * np.minimum(tails, 1.0)))
        assert tail_mass_bound(bimodal, (lo, hi)) == want

    def test_exp_abs_moment_matches_norm_cdf(self, bimodal):
        r, total = 1.5, 0.0
        for w, m, c in zip(bimodal.weights, bimodal.means[:, 0], bimodal.covs[:, 0, 0]):
            s, half = math.sqrt(c), 0.5 * r * r * c
            total += w * (math.exp(r * m + half) * norm.cdf(m / s + r * s)
                          + math.exp(-r * m + half) * norm.cdf(-m / s + r * s))
        assert bimodal.exp_abs_moment(r) == total

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # nor the LP, sparse and quadrature modules that only tests use
        import tvrates

        unused = ("scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.integrate")
        code = ("import sys, tvrates, tvrates.cli; "
                f"print(*(m for m in {unused!r} if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(tvrates.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0 and run.stdout.split() == []


class TestSampling:
    def test_deterministic_given_seed(self, std_normal):
        s1 = std_normal.sample(4, seed=7)
        s2 = std_normal.sample(4, seed=7)
        np.testing.assert_array_equal(s1.locations, s2.locations)
        np.testing.assert_array_equal(s1.masses, s2.masses)

    def test_mean_at_clt_scale(self, std_normal):
        s = std_normal.sample(10**5, seed=1)
        assert abs(s.locations.mean()) < 0.02  # 5 / sqrt(n) = 0.0158

    def test_single_draw_has_unit_mass(self, bimodal):
        s = bimodal.sample(1, seed=0)
        assert len(s) == 1
        np.testing.assert_allclose(s.masses, [1.0])


class TestValidationAndJson:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(PreconditionError, match=r"^weights sum to 1\.1, not 1$"):
            GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_covariance_must_be_positive_definite(self):
        for var in (0.0, -1.0):
            with pytest.raises(PreconditionError, match="variances must be > 0"):
                GaussianMixture([1.0], [0.0], [var])

    def test_covariance_must_be_symmetric(self):
        # a 2 x 2 matrix is refused outright: mixtures are one-dimensional
        with pytest.raises(PreconditionError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.1, 1.0]]])

    def test_mixture_json_round_trip(self, bimodal):
        doc = bimodal.to_json()
        assert set(doc) == {"d", "components"}
        assert set(doc["components"][0]) == {"w", "mean", "cov"}
        back = GaussianMixture.from_json(json.dumps(doc))
        assert back == bimodal

    def test_atom_masses_validated(self):
        with pytest.raises(PreconditionError, match=r"^atom masses sum to 0\.5, not 1$"):
            AtomSet(np.array([[0.0]]), np.array([0.5]))
        with pytest.raises(PreconditionError):
            AtomSet(np.array([[np.inf]]), np.array([1.0]))
        # a location needs a coordinate: no cost matrix exists in d = 0
        with pytest.raises(PreconditionError, match="d >= 1"):
            AtomSet(np.empty((2, 0)), np.array([0.5, 0.5]))

    def test_immutability(self, std_normal):
        with pytest.raises(ValueError):
            std_normal.means[0, 0] = 5.0
