import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvrates import (
    CharGrid,
    DecayError,
    ExpEnvelopeTable,
    GaussianMixture,
    PolyEnvelopeTable,
    PreconditionError,
    ResolutionError,
    SpaceGrid,
    char_fn_grid,
    delta_p_char,
    discretize,
    gaussian,
    poly_envelope,
    weighted_diff_reconstruct,
)
from reference import delta_p_char_closed_form, poly_table_loop
from tvrates import common_grid, default_scenarios
from tvrates.bounds import BoundParams, LawEvaluation, PairEvaluation
from tvrates.harness import perturb_pair
from tvrates.spectral import (
    LOG_FLOAT_MAX,
    RESOLVED_FLOOR,
    _derivative_stack,
    exp_envelope,
    forward_transform,
    inverse_transform,
)


def grid_of(dist, n=4096, k_sigma=10.0):
    return discretize(dist, common_grid(dist, dist, k_sigma, n))


class TestAnalyticCharFn:
    def test_standard_normal_at_one(self, std_normal):
        np.testing.assert_allclose(std_normal.char_fn(1.0), math.exp(-0.5))

    def test_normalization_at_zero(self, bimodal):
        np.testing.assert_allclose(bimodal.char_fn(0.0), 1.0)

    def test_shifted_normal_at_pi(self):
        g = gaussian(1.0, 1.0)
        val = g.char_fn(math.pi)
        expected = np.exp(1j * math.pi - math.pi**2 / 2.0)
        np.testing.assert_allclose(val, expected, atol=1e-15)
        np.testing.assert_allclose(abs(val), math.exp(-math.pi**2 / 2.0))


class TestCharGrid:
    def test_matches_analytic_near_one(self, std_normal):
        cg = char_fn_grid(grid_of(std_normal, 1024))
        u = cg.freqs()
        node = u[np.abs(u - 1.0).argmin()]
        assert abs(cg.value_at(1.0) - std_normal.char_fn(node)) < 1e-6

    def test_matches_analytic_on_half_band(self, bimodal):
        f = grid_of(bimodal, 1024)
        cg = char_fn_grid(f)
        u = cg.freqs()
        half = np.abs(u) <= np.abs(u).max() / 2
        exact = bimodal.char_fn(u[half])
        np.testing.assert_allclose(cg.values[half], exact, atol=1e-6)

    def test_unit_value_at_zero(self, bimodal):
        cg = char_fn_grid(grid_of(bimodal, 512))
        assert abs(cg.value_at(0.0) - 1.0) < 1e-8

    def test_translation_changes_phase_only(self):
        n = 1024
        f0 = discretize(gaussian(0.0, 1.0), SpaceGrid(-10, 10, n))
        f3 = discretize(gaussian(3.0, 1.0), SpaceGrid(-7, 13, n))
        m0 = np.abs(char_fn_grid(f0).values)
        m3 = np.abs(char_fn_grid(f3).values)
        np.testing.assert_allclose(m0, m3, atol=1e-9)

    def test_round_trip_recovers_density(self, bimodal):
        f = grid_of(bimodal, 2048)
        cg = char_fn_grid(f)
        back = inverse_transform(cg.space_grid, cg.values)
        assert np.abs(back.real - f.values).max() <= 1e-8
        assert np.abs(back.imag).max() <= 1e-10

    def test_plancherel(self, bimodal):
        f = grid_of(bimodal, 2048)
        cg = char_fn_grid(f)
        space = np.sum(f.values**2) * f.grid.spacing
        freq = np.sum(np.abs(cg.values) ** 2) * f.grid.freq_spacing / (2 * math.pi)
        np.testing.assert_allclose(space, freq, rtol=1e-6)

    def test_modulus_bound_and_conjugate_symmetry(self, bimodal):
        cg = char_fn_grid(grid_of(bimodal, 1024))
        assert np.abs(cg.values).max() <= 1.0 + 1e-8
        v = cg.values
        # node -u_m is node n-m for m >= 1 on the shifted grid
        np.testing.assert_allclose(v[1:], np.conj(v[1:][::-1]), atol=1e-10)

    def test_characteristic_invariants_enforced(self, std_normal):
        f = grid_of(std_normal, 256)
        with pytest.raises(PreconditionError, match=r"^\|phi\| reaches 2\.0 > 1 "):
            CharGrid(f.grid, np.full(f.grid.n, 2.0 + 0j))

    def test_analytic_grid_agrees_with_fft(self, bimodal):
        f = grid_of(bimodal, 1024)
        ca = bimodal.char_fn(f.grid.freqs())
        cf = char_fn_grid(f)
        u = np.abs(f.grid.freqs())
        half = u <= u.max() / 2
        np.testing.assert_allclose(ca[half], cf.values[half], atol=1e-6)

    def test_forward_transform_matches_direct_sum(self, std_normal):
        # tiny grid, direct O(n^2) evaluation of the discrete transform
        f = discretize(std_normal, SpaceGrid(-8, 8, 16))
        got = forward_transform(f.grid, f.values)
        xs, us = f.grid.nodes(), f.grid.freqs()
        direct = (
            f.values[None, :] * np.exp(1j * us[:, None] * xs[None, :])
        ).sum(axis=1) * f.grid.spacing
        np.testing.assert_allclose(got, direct, atol=1e-10)


class TestDeltaP:
    def test_second_derivative_at_zero(self, std_normal):
        dp = delta_p_char(grid_of(std_normal), 2)
        np.testing.assert_allclose(dp.value_at(0.0), -1.0, atol=1e-12)

    def test_second_derivative_near_one(self, std_normal):
        f = grid_of(std_normal)
        dp = delta_p_char(f, 2)
        u = f.grid.freqs()
        node = u[np.abs(u - 1.0).argmin()]
        expected = (node**2 - 1.0) * math.exp(-(node**2) / 2.0)
        np.testing.assert_allclose(dp.value_at(1.0), expected, atol=1e-12)

    def test_fourth_derivative_at_zero(self, std_normal):
        dp = delta_p_char(grid_of(std_normal), 4)
        np.testing.assert_allclose(dp.value_at(0.0), 3.0, atol=1e-12)

    def test_odd_order_rejected(self, std_normal):
        f = grid_of(std_normal, 512)
        for p in (3, 2.5):  # a fractional order is not truncated to 2
            with pytest.raises(PreconditionError):
                delta_p_char(f, p)

    def test_grid_and_analytic_paths_agree(self, bimodal):
        f = grid_of(bimodal)
        da = delta_p_char_closed_form(bimodal, 2, f.grid)
        dg = delta_p_char(f, 2)
        u = np.abs(f.grid.freqs())
        band = u <= u.max() / 2
        np.testing.assert_allclose(dg.values[band], da[band], atol=1e-8)

    @pytest.mark.parametrize("p", [2, 4])
    def test_value_at_zero_is_signed_moment_sum(self, p):
        mix = GaussianMixture([0.6, 0.4], [0.5, -0.25], [1.0, 2.0])
        grid = common_grid(mix, mix, resolution=256)
        dp = delta_p_char(discretize(mix, grid), p)
        # i^p E x^p, from per-component Gaussian moment recursion
        total = 0.0
        for w, mu, var in zip(mix.weights, [0.5, -0.25], [1.0, 2.0]):
            mom = {0: 1.0, 1: mu}
            for k in range(2, p + 1):
                mom[k] = mu * mom[k - 1] + (k - 1) * var * mom[k - 2]
            total += w * mom[p]
        expected = (1j) ** p * total
        np.testing.assert_allclose(dp.value_at(0.0), expected, atol=1e-6)


class TestWeightedDiffReconstruct:
    def test_identical_inputs_give_zero(self, std_normal):
        _, vals = weighted_diff_reconstruct(std_normal, std_normal, 2)
        assert np.abs(vals).max() < 1e-12

    def test_matches_direct_product_translate(self):
        a, b = gaussian(0.0, 1.0), gaussian(0.5, 1.0)
        grid, vals = weighted_diff_reconstruct(a, b, 2)
        x = grid.nodes()
        direct = (a.pdf(x) - b.pdf(x)) * x**2
        assert np.abs(vals - direct).max() <= 1e-3

    def test_sign_pattern_variance_pair(self):
        a, b = gaussian(0.0, 1.0), gaussian(0.0, 1.21)
        grid, vals = weighted_diff_reconstruct(a, b, 2)
        x = grid.nodes()
        direct = (a.pdf(x) - b.pdf(x)) * x**2
        strong = np.abs(direct) > 1e-6
        assert np.all(np.sign(vals[strong]) == np.sign(direct[strong]))

    def test_grid_inputs_rejected(self):
        f = discretize(gaussian(0.0, 1.0), SpaceGrid(-10, 10, 512))
        for args in ((f, f), (gaussian(0.0, 1.0), f)):
            with pytest.raises(PreconditionError, match="Gaussian mixtures"):
                weighted_diff_reconstruct(*args, 2)


class TestPolyEnvelope:
    def test_density_peak_entry(self, std_normal):
        tab = poly_envelope(grid_of(std_normal), 0, 0)
        np.testing.assert_allclose(
            tab.get(0, 0), 1.0 / math.sqrt(2 * math.pi), rtol=1e-4
        )

    def test_density_weighted_entry(self, std_normal):
        # maximize (1+|x|)^2 e^{-x^2/2}/sqrt(2 pi): stationarity 2/(1+x) = x
        # gives x = 1, value 4 e^{-1/2}/sqrt(2 pi) = 0.9678828...
        tab = poly_envelope(grid_of(std_normal), 0, 2)
        expected = 4.0 * math.exp(-0.5) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(tab.get(0, 2), expected, atol=1e-4)

    def test_frequency_unit_entry(self, std_normal):
        tab = poly_envelope(char_fn_grid(grid_of(std_normal)), 0, 0)
        np.testing.assert_allclose(tab.get(0, 0), 1.0, atol=1e-10)

    def test_refinement_stability(self, bimodal):
        f1 = grid_of(bimodal, 4096)
        f2 = grid_of(bimodal, 8192)
        for obj1, obj2 in ((f1, f2), (char_fn_grid(f1), char_fn_grid(f2))):
            t1 = poly_envelope(obj1, 4, 6)
            t2 = poly_envelope(obj2, 4, 6)
            rel = np.abs(t2.table - t1.table) / t1.table
            assert rel.max() < 0.05

    def test_coarse_grid_rejected_for_high_order(self):
        # a spike this narrow still has resolved spectral content at the
        # 64-point band edge: differentiation of that grid is not certified
        f = discretize(gaussian(0.0, 0.0009), SpaceGrid(-1, 1, 64))
        with pytest.raises(ResolutionError):
            poly_envelope(f, 4, 2)

    def test_json_round_trip(self, std_normal):
        tab = poly_envelope(grid_of(std_normal), 2, 3)
        doc = json.loads(json.dumps(tab.to_json()))
        assert set(doc) == {"side", "entries"}
        assert doc["side"] == tab.side
        assert {(e["k"], e["l"]): e["c"] for e in doc["entries"]} == {
            (k, l): tab.table[k, l] for k in range(3) for l in range(4)
        }

    def test_default_laws_match_per_l_loop_bit_for_bit(self):
        # every law of the default sweep, on its sweep grid, at the order
        # and weight power (l = 77) the certificates read
        for sc in default_scenarios():
            ref, first = perturb_pair(sc, sc.h_grid[0])
            grid = common_grid(ref, first, sc.box_sigmas, sc.resolution)
            K, L = sc.params.p_even, 77
            for law in [ref] + [perturb_pair(sc, h)[1] for h in sc.h_grid]:
                cg = LawEvaluation(law, grid).char_grid
                _, _, radii, stacks = _derivative_stack(cg, K)
                want = poly_table_loop(stacks, radii, K, L, RESOLVED_FLOOR, LOG_FLOAT_MAX)
                np.testing.assert_array_equal(poly_envelope(cg, K, L).table, want)


class TestEnvelopeOrders:
    """Tables at chosen derivative orders, as the certificates read them."""

    @settings(max_examples=25, deadline=None)
    @given(
        params=st.lists(
            st.tuples(st.floats(0.05, 1.0), st.floats(-3.0, 3.0), st.floats(0.3, 4.0)),
            min_size=1, max_size=3,
        ),
        K=st.sampled_from([2, 4]),
        side=st.sampled_from(["density", "frequency"]),
    )
    def test_tables_at_orders_equal_rows_of_full_tables(self, params, K, side):
        w, m, v = (np.array(c) for c in zip(*params))
        law = GaussianMixture(w / w.sum(), m, v)
        dens = grid_of(law, 1024)
        obj = dens if side == "density" else char_fn_grid(dens)
        try:
            full = poly_envelope(obj, K, 12)
        except ResolutionError:
            return
        part = poly_envelope(obj, K, 12, orders=(K, 0))
        assert part.orders == (0, K) and (part.max_k, part.max_l) == (K, 12)
        np.testing.assert_array_equal(part.table, full.table[[0, K]])
        for k in (0, K):
            assert part.get(k, 7) == full.get(k, 7)
        if side == "density":
            return
        exp_part = exp_envelope(obj, K, orders=(0, K))
        assert set(exp_part.rates) == set(exp_part.integrals) == set(exp_part.sups) == {0, K}
        try:
            exp_full = exp_envelope(char_fn_grid(dens), K)
        except (DecayError, ResolutionError):
            # an unread order's tail fit may fail where orders 0 and K fit
            return
        for k in (0, K):
            assert exp_part.get(k) == exp_full.get(k)
            assert exp_part.sups[k] == exp_full.sups[k]

    def test_missing_order_is_typed_and_pairs_keep_common_orders(
        self, std_normal, bimodal
    ):
        grid = common_grid(std_normal, bimodal, 10.0, 4096)
        la, lb = (LawEvaluation(law, grid) for law in (std_normal, bimodal))
        cg_a, cg_b = la.char_grid, lb.char_grid
        ta = poly_envelope(cg_a, 4, 6, orders=(0, 4))
        tb = poly_envelope(cg_b, 4, 6, orders=(0, 2, 4))
        with pytest.raises(PreconditionError, match="missing order 2"):
            ta.get(2, 3)
        # a negative index is outside the table, not numpy's count from the end
        for k, l in ((0, -1), (-1, 0), (0, 7), (5, 0)):
            with pytest.raises(PreconditionError, match="covers"):
                ta.get(k, l)
        assert [e["k"] for e in ta.to_json()["entries"]] == [0] * 7 + [4] * 7
        # a pair's entry is the larger of its laws' table entries, bit for bit
        pair = PairEvaluation.of_laws(la, lb, BoundParams(p=4.0, q=2.0, epsilon=0.1))
        for k in (0, 4):
            for l in range(7):
                assert pair.envelope(k, l) == max(ta.get(k, l), tb.get(k, l))
        with pytest.raises(PreconditionError, match="missing order 2"):
            exp_envelope(cg_a, 4, orders=(0, 4)).get(2)

    @pytest.mark.parametrize("orders", [(), (0, 5), (-1, 2), (1.5,), ("0",)])
    def test_orders_outside_the_coverage_rejected(self, std_normal, orders):
        cg = char_fn_grid(grid_of(std_normal, 1024))
        with pytest.raises(PreconditionError, match="orders"):
            poly_envelope(cg, 4, 6, orders=orders)
        with pytest.raises(PreconditionError, match="orders"):
            exp_envelope(cg, 4, orders=orders)
        with pytest.raises(PreconditionError, match="orders"):
            PolyEnvelopeTable("frequency", 4, 6, np.zeros((len(orders), 7)), orders)


class TestExpEnvelope:
    def test_gaussian_fit_is_positive_and_self_consistent(self, std_normal):
        cg = char_fn_grid(grid_of(std_normal))
        tab = exp_envelope(cg, 0)
        r0, c0 = tab.get(0)
        assert r0 > 0 and math.isfinite(c0)
        cg2 = char_fn_grid(grid_of(std_normal, 8192))
        tab2 = exp_envelope(cg2, 0)
        assert abs(tab2.integrals[0] - c0) / c0 < 0.01

    def test_point_mass_tail_rejected(self, std_normal):
        # |phi| = 1 everywhere (a pure phase) has a flat tail: no certificate
        grid = grid_of(std_normal, 512).grid
        u = grid.freqs()
        flat = CharGrid(grid, np.exp(1j * 0.3 * u))
        with pytest.raises(DecayError):
            exp_envelope(flat, 0)

    def test_tail_resolved_to_the_top_frequency_rejected(self):
        # on the common grid of N(0.1, 0.25) and 0.9 N(0, 1) + 0.1 N(2, 1),
        # the narrow law's order-6 magnitudes stay resolved up to the top
        # frequency, where round-off gives the flat tail a negative slope
        narrow = gaussian(0.1, 0.25)
        blend = GaussianMixture([0.9, 0.1], [0.0, 2.0], [1.0, 1.0])
        grid = common_grid(narrow, blend)
        with pytest.raises(DecayError, match="order-6 tail"):
            exp_envelope(char_fn_grid(discretize(narrow, grid)), 6, orders=(0, 6))
        # the blend's order-6 tail decays inside the grid, and fits
        fitted = exp_envelope(char_fn_grid(discretize(blend, grid)), 6, orders=(0, 6))
        assert set(fitted.rates) == {0, 6}

    def test_rate_scales_with_width(self):
        # phi_sigma(u) = phi_1(sigma u), so the fitted tail rate doubles
        # when sigma does
        f1 = discretize(gaussian(0.0, 1.0), SpaceGrid(-10, 10, 4096))
        f2 = discretize(gaussian(0.0, 4.0), SpaceGrid(-20, 20, 4096))
        r1 = exp_envelope(char_fn_grid(f1), 0).rates[0]
        r2 = exp_envelope(char_fn_grid(f2), 0).rates[0]
        np.testing.assert_allclose(r2, 2.0 * r1, rtol=0.05)
        assert r2 >= r1

    def test_pair_combination_bounds_both(self, std_normal, bimodal):
        ea = exp_envelope(char_fn_grid(grid_of(std_normal)), 2)
        eb = exp_envelope(char_fn_grid(grid_of(bimodal)), 2)
        comb = ea.combine(eb)
        for k in range(3):
            assert comb.rates[k] == min(ea.rates[k], eb.rates[k])
            assert comb.integrals[k] >= max(ea.integrals[k], eb.integrals[k])

    def test_rate_without_integral_rejected(self):
        with pytest.raises(PreconditionError):
            ExpEnvelopeTable({0: 1.0}, {}, {})
