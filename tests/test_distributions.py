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
from scipy.stats import norm

from oracles import (
    mixture_pdf,
    norm_sq_moment_loop,
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
from tvrates.distributions import _norm_sq_moment, tail_mass_bound
from tvrates.transport import normal_levels


class TestDensity:
    def test_standard_normal_peak(self, std_normal):
        np.testing.assert_allclose(std_normal.pdf(0.0), 1.0 / math.sqrt(2 * math.pi))

    def test_2d_peak_is_product_of_1d_peaks(self):
        g = gaussian([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(g.pdf([0.0, 0.0]), 1.0 / (2 * math.pi))

    def test_symmetric_bimodal_at_origin(self, bimodal):
        # two-term sum: 2 * (1/2) * phi(1) = e^{-1/2} / sqrt(2 pi)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(bimodal.pdf(0.0), expected, rtol=1e-14)
        oracle = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(bimodal.pdf(0.0), oracle(np.array(0.0)))

    def test_dimension_mismatch_rejected(self):
        g = gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(PreconditionError):
            g.pdf(np.zeros(3))

    def test_vectorized_matches_oracle(self, bimodal):
        xs = np.linspace(-5, 5, 101)
        oracle = mixture_pdf([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(bimodal.pdf(xs), oracle(xs), rtol=1e-12)


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

    def test_2d_even_moments_closed_form(self):
        g = gaussian([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        # E|X|^2 = tr(S) + |m|^2
        np.testing.assert_allclose(g.abs_moment(2), 3.0 + 2.0)
        # E|X|^4 = (tr S + m'm)^2 + 2 tr(S^2) + 4 m'Sm
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = np.array([1.0, -1.0])
        expected = (np.trace(s) + m @ m) ** 2 + 2 * np.trace(s @ s) + 4 * m @ s @ m
        np.testing.assert_allclose(g.abs_moment(4), expected, rtol=1e-12)

    def test_2d_odd_moment_needs_one_dimension(self):
        g = gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(PreconditionError, match="one-dimensional"):
            g.abs_moment(1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), k=st.integers(0, 170))
    def test_norm_sq_moment_matches_loop_bit_for_bit(self, data, d, k):
        entry = st.floats(-2.0, 2.0)
        mu = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
        root = np.array(data.draw(st.lists(entry, min_size=d * d, max_size=d * d)))
        root = root.reshape(d, d)
        cov = root @ root.T + data.draw(st.floats(0.05, 4.0)) * np.eye(d)
        with np.errstate(over="ignore", invalid="ignore"):
            want = norm_sq_moment_loop(mu, cov, k)
            got = _norm_sq_moment(mu, cov, k)
        np.testing.assert_array_equal(got, want)

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
        f = discretize(std_normal, SpaceGrid((-10,), (10,), (1024,)))
        assert f.mass_defect < 1e-20
        np.testing.assert_allclose(f.mass(), 1.0, atol=1e-12)

    def test_small_box_raises_with_normal_cdf_defect(self, std_normal):
        # defect oracle: 1 - (2 Phi(1) - 1) = 0.31731...
        with pytest.raises(MassDefectError) as exc:
            discretize(std_normal, SpaceGrid((-1,), (1,), (64,)))
        expected = 1.0 - (2 * norm.cdf(1.0) - 1.0)
        np.testing.assert_allclose(exc.value.defect, expected, rtol=1e-10)

    def test_tail_bound_dominates_true_defect(self, std_normal):
        box = [[-3.0, 3.0]]
        bound = tail_mass_bound(std_normal, box)
        true_defect = 1.0 - (norm.cdf(3.0) - norm.cdf(-3.0))
        assert bound >= true_defect - 1e-15

    @pytest.mark.parametrize("p", [0, 1, 2, 4])
    def test_grid_moments_recover_analytic(self, bimodal, p):
        f = discretize(bimodal, common_grid(bimodal, bimodal, 10.0, 1024))
        riemann = np.sum(f.grid.radii() ** p * f.values) * f.grid.cell_volume
        np.testing.assert_allclose(riemann, bimodal.abs_moment(p), atol=1e-4)

    def test_resolution_must_be_power_of_two(self, std_normal):
        with pytest.raises(PreconditionError):
            discretize(std_normal, SpaceGrid((-10,), (10,), (1000,)))

    def test_grid_dimension_must_match_law(self, std_normal):
        planar = gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(PreconditionError, match="grid dimension 2"):
            discretize(std_normal, common_grid(planar, planar, 10.0, 16))
        with pytest.raises(PreconditionError, match="grid dimension 1"):
            discretize(planar, SpaceGrid((-10,), (10,), (16,)))


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
            std_normal.quantile(([0.5], [0.5, 1.0]))

    def test_weights_short_of_one_terminate(self, std_normal, bimodal):
        # weights summing to 1 - 5e-13 pass the constructor, so the CDF never
        # reaches the top quadrature level; bracket expansion must still end
        short = GaussianMixture(
            [0.5, 0.4999999999995], [[-1.0], [1.0]], [[[1.0]], [[1.0]]]
        )

        def deadline(signum, frame):
            raise TimeoutError("wasserstein_1d did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            got = wasserstein_1d(std_normal, short, 2).value
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        want = wasserstein_1d(std_normal, bimodal, 2).value
        np.testing.assert_allclose(got, want, rtol=1e-9)


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
        # order and shape must not move a bit, nor may a second tuple item
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
        got_u, got_v = law.quantile((u, v))
        np.testing.assert_array_equal(got_u, quantile_bisection(law, u))
        np.testing.assert_array_equal(got_v, quantile_bisection(law, v))

    def test_tuple_items_keep_their_own_stopping_test(self):
        # on this mixture one bisection of both rule orders' levels, stopped
        # on their joint widest bracket, runs the 256-level order one
        # iteration past its own stop, which moves its bits
        law = GaussianMixture(
            [0.5163967613965685, 0.31556808957962607, 0.16803514902380534],
            [[12.538395932187498], [-15.408250603117935], [-29.86767266623248]],
            [[[3.3179691306252734]], [[7.990259700712973]], [[24.488523343726893]]],
        )
        u1, u2 = normal_levels(128), normal_levels(256)
        merged = law.quantile(np.concatenate([u1, u2]))
        assert not np.array_equal(merged[128:], law.quantile(u2))
        got1, got2 = law.quantile((u1, u2))
        np.testing.assert_array_equal(got1, quantile_bisection(law, u1))
        np.testing.assert_array_equal(got2, quantile_bisection(law, u2))

    def test_scalar_and_empty_levels(self, bimodal):
        assert isinstance(bimodal.quantile(0.3), float)
        assert bimodal.quantile(np.empty((0, 2))).shape == (0, 2)
        first, second = bimodal.quantile(([], 0.3))
        assert first.shape == (0,) and second == bimodal.quantile(0.3)


class TestNormalUfuncs:
    """The mixture CDF, tail bound and auto box call scipy.special's normal
    ufuncs, which scipy.stats.norm wraps: the values are the same bits."""

    def test_cdf_matches_norm_cdf(self, bimodal):
        xs = np.linspace(-40.0, 40.0, 2001)
        z = (xs[:, None] - bimodal.means[:, 0]) / np.sqrt(bimodal.covs[:, 0, 0])
        want = np.sum(bimodal.weights * norm.cdf(z), axis=-1)
        assert np.array_equal(bimodal.cdf(xs), want)

    def test_tail_bound_and_box_match_norm(self, bimodal):
        box = np.array([[-3.5, 2.0]])
        s = np.sqrt(bimodal.covs[:, 0, 0])[:, None]
        tails = (norm.cdf((box[:, 0] - bimodal.means) / s)
                 + norm.sf((box[:, 1] - bimodal.means) / s))
        want = float(np.sum(bimodal.weights * np.minimum(tails.sum(axis=1), 1.0)))
        assert tail_mass_bound(bimodal, box) == want

    def test_exp_abs_moment_matches_norm_cdf(self, bimodal):
        r, total = 1.5, 0.0
        for w, m, c in zip(bimodal.weights, bimodal.means[:, 0], bimodal.covs[:, 0, 0]):
            s, half = math.sqrt(c), 0.5 * r * r * c
            total += w * (math.exp(r * m + half) * norm.cdf(m / s + r * s)
                          + math.exp(-r * m + half) * norm.cdf(-m / s + r * s))
        assert bimodal.exp_abs_moment(r) == total

    def test_package_import_leaves_scipy_stats_unloaded(self):
        import tvrates

        code = ("import sys, tvrates, tvrates.cli; "
                "sys.exit('scipy.stats' in sys.modules)")
        src = os.path.dirname(os.path.dirname(tvrates.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
        with pytest.raises(PreconditionError):
            GaussianMixture([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(PreconditionError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(PreconditionError):
            GaussianMixture([1.0], [[0.0, 0.0]], [[[1.0, 0.5], [0.1, 1.0]]])

    def test_mixture_json_round_trip(self, bimodal):
        doc = bimodal.to_json()
        assert set(doc) == {"d", "components"}
        assert set(doc["components"][0]) == {"w", "mean", "cov"}
        back = GaussianMixture.from_json(json.dumps(doc))
        assert back == bimodal

    def test_atom_set_json_round_trip(self):
        atoms = AtomSet(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.25, 0.75]))
        doc = atoms.to_json()
        assert set(doc) == {"d", "atoms"}
        back = AtomSet.from_json(json.dumps(doc))
        np.testing.assert_array_equal(back.locations, atoms.locations)
        np.testing.assert_array_equal(back.masses, atoms.masses)

    def test_atom_masses_validated(self):
        with pytest.raises(PreconditionError):
            AtomSet(np.array([[0.0]]), np.array([0.5]))
        with pytest.raises(PreconditionError):
            AtomSet(np.array([[np.inf]]), np.array([1.0]))

    def test_immutability(self, std_normal):
        with pytest.raises(ValueError):
            std_normal.means[0, 0] = 5.0
