import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import norm

import tvrates.transport
from reference import (
    assignment_cost,
    brute_force_ot_uniform,
    mixture_pdf,
    north_west_corner_add_at,
    ot_lp,
    quad_weighted_tv,
    reassignment_distances_loop,
    sinkhorn_log_domain,
)
from tvrates import (
    AtomSet,
    ConvergenceError,
    DistanceResult,
    GaussianMixture,
    NumericalError,
    PairEvaluation,
    PreconditionError,
    SpaceGrid,
    discretize,
    fm_upper,
    gaussian,
    ot_entropic,
    ot_exact,
    rho_p,
    tv_mass,
    wasserstein_1d,
)

TV_UNIT_TRANSLATE = 2.0 * (2.0 * norm.cdf(0.5) - 1.0)  # 0.76584862...


def uniform_atoms(rng, n, d, shift=0.0, scale=1.0):
    return AtomSet(rng.normal(size=(n, d)) * scale + shift, np.full(n, 1.0 / n))


def uniform_cloud(x):
    return AtomSet(x, np.full(len(x), 1.0 / len(x)))


def benchmark_problems_seed0():
    """The transport benchmark's problems at seed 0: its generator first
    draws 32 pairs of 16-atom 2-D clouds (``lp16x16``), then the 64-atom 1-D
    cloud (paired with its 0.02 and 0.4 translates: ``near``, ``far``), two
    256-atom 1-D clouds, and the 64-atom 2-D pair (``2d``)."""
    rng = np.random.default_rng(0)
    lp16 = rng.uniform(size=(32, 2, 16, 2))
    x = rng.uniform(size=(64, 1))
    rng.uniform(size=(2, 256, 1))
    xa, xb = rng.uniform(size=(64, 2)), rng.uniform(size=(64, 2))
    return {"lp16x16": [tuple(pair) for pair in lp16],
            "near": (x, x + 0.02), "far": (x, x + 0.4), "2d": (xa, xb)}


def benchmark_cloud_seed0():
    """The 64-atom 1-D cloud of the transport benchmark at seed 0."""
    return benchmark_problems_seed0()["near"][0]


def duality_gap_case(seed):
    """Uniform clouds of the LP duality-gap tests: seeded 16-atom 2-D pairs,
    or the benchmark's 1-D cloud and its 0.02 translate on a line in 2-D."""
    if seed == "embedded-translate":
        # the LP stops ~1e-9 above the optimum on this pair
        x = np.column_stack([benchmark_cloud_seed0(), np.zeros(64)])
        return x, x + [0.02, 0.0]
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(16, 2)), rng.uniform(size=(16, 2))


@pytest.fixture
def sweep_counter(monkeypatch):
    """Counts ``ot_entropic``'s Sinkhorn sweeps: those of its kernel-scaling
    blocks, and the log-domain half sweeps of its guard."""
    counts = {"scaling": 0, "log_half": 0}
    block = tvrates.transport._scaling_block
    lse = tvrates.transport._logsumexp_rows

    def counted_block(kernel, u, v, ma, mb, n, omega, out):
        counts["scaling"] += n
        return block(kernel, u, v, ma, mb, n, omega, out)

    def counted_lse(M):
        counts["log_half"] += 1
        return lse(M)

    monkeypatch.setattr(tvrates.transport, "_scaling_block", counted_block)
    monkeypatch.setattr(tvrates.transport, "_logsumexp_rows", counted_lse)
    return counts


@pytest.fixture
def kernel_builds(monkeypatch):
    """Counts ``ot_entropic``'s kernel builds and its annealing stages, one
    rounding of the plan each."""
    counts = {"kernel": 0, "stages": 0}
    kernel = tvrates.transport._kernel
    round_plan = tvrates.transport._rounded_cost

    def counted_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counted_round(*args):
        counts["stages"] += 1
        return round_plan(*args)

    monkeypatch.setattr(tvrates.transport, "_kernel", counted_kernel)
    monkeypatch.setattr(tvrates.transport, "_rounded_cost", counted_round)
    return counts


def dirichlet_pairs():
    """120 seeded uneven-mass problems: sizes 2-59, dimension 1-3, q in
    {1, 1.5, 2, 3}, Dirichlet masses, a standard normal cloud against a
    spread and shifted one."""
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n, m = rng.integers(2, 60, size=2)
        d = int(rng.integers(1, 4))
        q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        xa = rng.normal(size=(n, d))
        xb = rng.normal(size=(m, d)) * rng.uniform(0.5, 2.0) + rng.normal(size=d)
        a = AtomSet(xa, rng.dirichlet(np.ones(n)))
        yield a, AtomSet(xb, rng.dirichlet(np.ones(m))), q


class TestDistanceResult:
    @pytest.mark.parametrize("value,err", [
        (math.nan, 0.0), (0.5, math.nan), (-1.0, 0.0), (0.5, -1e-3),
    ])
    def test_nan_or_negative_rejected(self, value, err):
        with pytest.raises(PreconditionError):
            DistanceResult(value, "exact-ot", err)

    def test_infinite_error_estimate_allowed(self):
        assert DistanceResult(0.5, "exact-ot", math.inf).err == math.inf


class TestExponentChecks:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solver", ["ot_exact-1d", "ot_exact-2d", "ot_entropic"])
    def test_cost_exponent_must_be_finite(self, sweep_counter, solver, x):
        rng = np.random.default_rng(3)
        d = 1 if solver == "ot_exact-1d" else 2
        a, b = uniform_atoms(rng, 4, d), uniform_atoms(rng, 5, d, shift=1.0)
        fn = ot_entropic if solver == "ot_entropic" else ot_exact
        with pytest.raises(PreconditionError, match="cost exponent q"):
            fn(a, b, x)
        # rejected before any solver work
        assert sweep_counter["scaling"] == 0

    @pytest.mark.parametrize("solver", [ot_exact, ot_entropic])
    def test_cost_overflow_names_the_exponent(self, solver):
        # |x - y|^700 overflows for the distance-3 pairs
        a = AtomSet([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        b = AtomSet([[0.0, 3.0], [3.0, 0.0]], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="exponent q = 700"):
                solver(a, b, 700.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_quadrature_exponents_must_be_finite(self, std_normal, x):
        other = gaussian(0.5, 1.0)
        with pytest.raises(PreconditionError, match="exponent q"):
            wasserstein_1d(std_normal, other, x)
        with pytest.raises(PreconditionError, match="weight power p"):
            rho_p(std_normal, other, x)


class TestRhoAndTv:
    def test_identical_inputs(self, std_normal):
        assert rho_p(std_normal, std_normal, 2).value == 0.0

    def test_zero_power_weight_is_constant_one(self, std_normal):
        # rho at p = 0 is the plain total variation mass
        a, b = std_normal, gaussian(1.0, 1.0)
        r0 = rho_p(a, b, 0)
        np.testing.assert_allclose(r0.value, TV_UNIT_TRANSLATE, atol=1e-4)
        np.testing.assert_allclose(r0.value, tv_mass(a, b).value)

    def test_tv_of_unit_translates(self, std_normal):
        got = tv_mass(std_normal, gaussian(1.0, 1.0))
        np.testing.assert_allclose(got.value, TV_UNIT_TRANSLATE, atol=1e-4)
        assert got.err <= 1e-6

    def test_rho2_against_dense_quadrature(self, std_normal):
        pa = mixture_pdf([1.0], [0.0], [1.0])
        pb = mixture_pdf([1.0], [1.0], [1.0])
        oracle = quad_weighted_tv(pa, pb, 2)
        got = rho_p(std_normal, gaussian(1.0, 1.0), 2)
        np.testing.assert_allclose(got.value, oracle, atol=1e-4)
        assert got.value >= tv_mass(std_normal, gaussian(1.0, 1.0)).value

    def test_tv_of_variance_pair_against_quadrature(self, std_normal):
        pa = mixture_pdf([1.0], [0.0], [1.0])
        pb = mixture_pdf([1.0], [0.0], [2.0])
        oracle = quad_weighted_tv(pa, pb, 0)
        got = tv_mass(std_normal, gaussian(0.0, 4.0))
        np.testing.assert_allclose(got.value, oracle, atol=1e-4)

    def test_weight_past_float_range_is_typed_without_warning(self, std_normal):
        # |x|^320 overflows on the grid box of this pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"weight \|x\|\^p at p = 320"):
                rho_p(std_normal, gaussian(0.1, 1.0), 320)

    def test_symmetry(self, std_normal, bimodal):
        ab = rho_p(std_normal, bimodal, 2).value
        ba = rho_p(bimodal, std_normal, 2).value
        assert abs(ab - ba) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 3.5])
    def test_dominates_tv(self, std_normal, bimodal, p):
        assert rho_p(std_normal, bimodal, p).value >= tv_mass(
            std_normal, bimodal
        ).value - 1e-12

    def test_grid_density_inputs(self, std_normal):
        # the distances take mixtures only; a grid density is refused
        grid = SpaceGrid(-10.5, 10.5, 4096)
        fa = discretize(std_normal, grid)
        fb = discretize(gaussian(1.0, 1.0), grid)
        for args in ((fa, fb), (std_normal, fb), (fa, std_normal)):
            with pytest.raises(PreconditionError, match="GridDensity"):
                tv_mass(*args)
            with pytest.raises(PreconditionError, match="GridDensity"):
                rho_p(*args, 2.0)

    def test_no_grid_parameter(self):
        for fn in (rho_p, tv_mass, PairEvaluation):
            assert "grid" not in inspect.signature(fn).parameters


class TestWasserstein1d:
    @pytest.mark.parametrize("h", [0.5, 0.1, 0.01])
    def test_translate_is_exact(self, std_normal, h):
        got = wasserstein_1d(std_normal, gaussian(h, 1.0), 2)
        assert abs(got.value - h) <= 1e-8

    def test_scale_pair_closed_form(self, std_normal):
        # quantile map is linear: W_2 = |sigma - 1| (int z^2 dPhi = 1)
        got = wasserstein_1d(std_normal, gaussian(0.0, 4.0), 2)
        np.testing.assert_allclose(got.value, 1.0, atol=1e-8)

    def test_identical_q3(self, bimodal):
        assert wasserstein_1d(bimodal, bimodal, 3).value == 0.0

    @pytest.mark.parametrize("q", [2.0, 300.0, 330.0, 1000.0])
    def test_translate_at_large_q(self, std_normal, q):
        # |Qa - Qb|^q = 0.1^q underflows from q ~ 308 on; the sum used to
        # read 0.0 with err 0 at q >= 330
        got = wasserstein_1d(std_normal, gaussian(0.1, 1.0), q)
        assert abs(got.value - 0.1) <= 1e-12

    def test_far_translate_at_large_q(self, std_normal):
        # 10^330 overflows: this used to raise "distance inf"
        got = wasserstein_1d(std_normal, gaussian(10.0, 1.0), 330.0)
        assert abs(got.value - 10.0) <= 1e-12 and got.err <= 1e-12

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_low_q_rejected(self, std_normal, q):
        with pytest.raises(PreconditionError):
            wasserstein_1d(std_normal, gaussian(1.0, 1.0), q)

    def test_scaling_homogeneity(self, bimodal):
        # W_q(cX, cY) = c W_q(X, Y)
        other = GaussianMixture([0.5, 0.5], [[-1.2], [0.8]], [[[1.0]], [[1.5]]])
        base = wasserstein_1d(bimodal, other, 2).value
        scaled = wasserstein_1d(bimodal.scale(3.0), other.scale(3.0), 2).value
        assert abs(scaled - 3.0 * base) <= 1e-8

    @pytest.mark.parametrize("mixed_k", [False, True])
    def test_one_solver_call_for_both_laws_and_orders(
        self, std_normal, bimodal, monkeypatch, mixed_k
    ):
        import tvrates.distributions as dmod
        from tvrates.transport import DistanceResult, _quantile_wq, normal_levels

        # the value at the doubled rule order, its distance from the base
        # order's the error estimate
        other = bimodal.translate(0.3) if mixed_k else gaussian(0.3, 1.5)

        def rule_value(n):
            u = normal_levels(n)
            return _quantile_wq(std_normal.quantile(u), other.quantile(u), 2.5)

        v1, v2 = rule_value(128), rule_value(256)
        want = DistanceResult(v2, "quantile-quadrature", abs(v2 - v1))
        solver, bisect = dmod.mixture_quantiles, dmod._bisect
        calls = {"solver": [], "bisect": []}

        def counting_solver(items):
            calls["solver"].append([len(u) for _, u in items])
            return solver(items)

        def counting_bisect(items):
            calls["bisect"].append(len(items))
            return bisect(items)

        def forbidden(law, u):
            raise AssertionError("both laws go through one solver call")

        monkeypatch.setattr(tvrates.transport, "mixture_quantiles", counting_solver)
        monkeypatch.setattr(dmod, "_bisect", counting_bisect)
        monkeypatch.setattr(GaussianMixture, "quantile", forbidden)
        assert wasserstein_1d(std_normal, other, 2.5) == want
        assert calls["solver"] == [[128, 256, 128, 256]]
        # one bisection, whatever the component counts
        assert calls["bisect"] == [4]

    def test_grid_density_inputs_rejected(self, std_normal):
        f = discretize(std_normal, SpaceGrid(-10.5, 10.5, 4096))
        for args in ((f, f), (std_normal, f)):
            with pytest.raises(PreconditionError, match="GridDensity"):
                wasserstein_1d(*args, 2)

    def test_two_dimensional_mixture_rejected(self):
        # no 2-D mixture can be built, so none reaches the quantile solver
        with pytest.raises(PreconditionError, match="one-dimensional"):
            gaussian([0.0, 0.0], np.eye(2))

    def test_matches_exact_ot_on_quantile_atoms(self, std_normal):
        # 512-atom quantile discretizations of the pair
        b = gaussian(0.3, 1.44)
        u = (np.arange(512) + 0.5) / 512
        masses = np.full(512, 1.0 / 512)
        atoms_a = AtomSet(std_normal.quantile(u)[:, None], masses)
        atoms_b = AtomSet(b.quantile(u)[:, None], masses)
        exact, _ = ot_exact(atoms_a, atoms_b, 2)
        quad = wasserstein_1d(std_normal, b, 2)
        assert abs(quad.value - exact.value) <= 1e-3


class TestCostMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 7),
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_coordinate_sums_match_linalg_norm_bit_for_bit(self, data, d, n, m, q):
        # the squares are added one coordinate after the other, numpy's own
        # order up to d = 7
        coords = st.floats(-1e3, 1e3) | st.floats(-1e-3, 1e-3)
        xa, xb = (
            np.array(data.draw(st.lists(coords, min_size=k * d, max_size=k * d))).reshape(k, d)
            for k in (n, m)
        )
        a = AtomSet(xa, np.full(n, 1.0 / n))
        b = AtomSet(xb, np.full(m, 1.0 / m))
        want = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=-1) ** q
        got = tvrates.transport._cost_matrix(a, b, q)
        assert got.tobytes() == want.tobytes()


class TestOtExact:
    def test_point_masses(self):
        d0 = AtomSet(np.array([[0.0]]), np.array([1.0]))
        d1 = AtomSet(np.array([[1.0]]), np.array([1.0]))
        res, plan = ot_exact(d0, d1, 2)
        np.testing.assert_allclose(res.value, 1.0)
        np.testing.assert_allclose(plan.matrix, [[1.0]])

    def test_split_to_center_unique_plan(self):
        ab = AtomSet(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        mid = AtomSet(np.array([[0.5]]), np.array([1.0]))
        res, plan = ot_exact(ab, mid, 1)
        np.testing.assert_allclose(res.value, 0.5)
        np.testing.assert_allclose(plan.matrix, [[0.5], [0.5]])

    @pytest.mark.parametrize("d,q", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_brute_force_enumeration(self, d, q):
        rng = np.random.default_rng(100 * d + q)
        for _ in range(5):
            a = uniform_atoms(rng, 4, d)
            b = uniform_atoms(rng, 4, d, shift=0.5)
            res, _ = ot_exact(a, b, q)
            oracle = brute_force_ot_uniform(a.locations, b.locations, q)
            assert abs(res.value - oracle) <= 1e-9

    def test_triangle_inequality_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = uniform_atoms(rng, 16, 1)
            b = uniform_atoms(rng, 16, 1, shift=0.3)
            c = uniform_atoms(rng, 16, 1, scale=1.4)
            wab = ot_exact(a, b, 2)[0].value
            wbc = ot_exact(b, c, 2)[0].value
            wac = ot_exact(a, c, 2)[0].value
            assert wac <= wab + wbc + 1e-9

    def test_size_limit(self):
        rng = np.random.default_rng(0)
        big = uniform_atoms(rng, 1025, 1)
        other = uniform_atoms(rng, 1024, 1)
        with pytest.raises(PreconditionError):
            ot_exact(big, other, 2)

    @pytest.mark.parametrize("shift", [0.02, 0.4])
    def test_benchmark_translate_pairs_match_assignment(self, shift):
        # an LP stopping within its dual tolerance landed ~1e-9 above these
        x = benchmark_cloud_seed0()
        res, _ = ot_exact(uniform_cloud(x), uniform_cloud(x + shift), 2)
        assert abs(res.value**2 - assignment_cost(x, x + shift, 2)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sorted_1d_matches_lp(self, n, m, q, ties, seed):
        rng = np.random.default_rng(seed)

        def atoms(k):
            x = rng.integers(0, 5, k) / 4.0 if ties else rng.uniform(size=k)
            return x, rng.dirichlet(np.ones(k))

        (xa, ma), (xb, mb) = atoms(n), atoms(m)
        a, b = AtomSet(xa[:, None], ma), AtomSet(xb[:, None], mb)
        res, plan = ot_exact(a, b, q)
        # HiGHS itself can stop ~1e-9 above the optimum; its gap certifies how far
        lp_cost, _, lp_gap = ot_lp(a, b, q)
        assert lp_cost - lp_gap - 1e-9 <= res.value**q <= lp_cost + 1e-9
        np.testing.assert_allclose(plan.matrix.sum(axis=1), ma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.matrix.sum(axis=0), mb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n, m, seed", [(7, 12, 0), (30, 5, 1), (16, 16, 2), (1, 9, 3)]
    )
    def test_sorted_1d_plan_matches_add_at_on_ties(self, n, m, seed):
        # locations on a 5-point lattice tie within and across the sets;
        # assigning the north-west-corner pieces gives np.add.at's bits
        rng = np.random.default_rng(seed)

        def atoms(k):
            x = rng.integers(0, 5, k) / 4.0
            return AtomSet(x[:, None], rng.dirichlet(np.ones(k)))

        a, b = atoms(n), atoms(m)
        cost, plan, gap = tvrates.transport._ot_sorted_1d(a, b, 2.0)
        ref_cost, ref_plan = north_west_corner_add_at(a, b, 2.0)
        assert cost == ref_cost and gap == 0.0
        np.testing.assert_array_equal(plan, ref_plan)

    @pytest.mark.parametrize("seed", [*range(8), "embedded-translate"])
    def test_lp_err_is_a_duality_gap(self, seed):
        # uniform clouds of equal size, so these take the assignment path
        xa, xb = duality_gap_case(seed)
        res, _ = ot_exact(uniform_cloud(xa), uniform_cloud(xb), 2)
        excess = res.value - assignment_cost(xa, xb, 2) ** 0.5
        assert res.err >= 0.0
        assert res.err >= excess - 1e-12

    @pytest.mark.parametrize("seed", [*range(8), "embedded-translate"])
    def test_highs_err_is_a_duality_gap(self, seed):
        # the same clouds through the HiGHS oracle
        xa, xb = duality_gap_case(seed)
        cost, _, gap = ot_lp(uniform_cloud(xa), uniform_cloud(xb), 2)
        res = tvrates.transport._gap_distance(cost, gap, 2, "exact-ot")
        excess = res.value - assignment_cost(xa, xb, 2) ** 0.5
        assert res.err >= 0.0
        assert res.err >= excess - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_lp_err_bounds_the_excess_on_uneven_masses(self, seed):
        # Dirichlet masses on a line in 2-D through the HiGHS oracle; the
        # sorted 1-D solver on the same atoms is the exact reference
        rng = np.random.default_rng(300 + seed)
        n, m = rng.integers(2, 40, size=2)
        q = (1.0, 1.5, 2.0, 3.0)[seed % 4]
        xa, xb = rng.normal(size=n), rng.normal(size=m) * 1.5 + 0.3
        ma, mb = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        exact, _ = ot_exact(AtomSet(xa[:, None], ma), AtomSet(xb[:, None], mb), q)
        cost, _, gap = ot_lp(
            AtomSet(np.column_stack([xa, np.zeros(n)]), ma),
            AtomSet(np.column_stack([xb, np.zeros(m)]), mb),
            q,
        )
        res = tvrates.transport._gap_distance(cost, gap, q, "exact-ot")
        assert res.err >= 0.0
        assert res.err >= res.value - exact.value - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(2, 3),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        layout=st.sampled_from(["uniform", "lattice", "shared"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_assignment_matches_lp_and_enumeration(self, n, d, q, layout, seed):
        # "lattice" ties costs and repeats locations within each set;
        # "shared" repeats a's locations in b, shuffled, with a few moved
        rng = np.random.default_rng(seed)
        if layout == "lattice":
            xa, xb = rng.integers(0, 3, size=(2, n, d)) / 2.0
        else:
            xa, xb = rng.uniform(size=(2, n, d))
            if layout == "shared":
                xb = np.where(rng.random((n, 1)) < 0.7, xa[rng.permutation(n)], xb)
        a, b = uniform_cloud(xa), uniform_cloud(xb)
        res, plan = ot_exact(a, b, q)
        w = 1.0 / n
        assert set(np.unique(plan.matrix)) <= {0.0, w}
        matched = plan.matrix == w
        assert (matched.sum(axis=0) == 1).all() and (matched.sum(axis=1) == 1).all()
        cost = float(np.sum(plan.matrix * np.linalg.norm(xa[:, None] - xb, axis=-1) ** q))
        assert res.err >= 0.0
        # the potentials certify the optimal matching to round-off
        assert res.value**q - (res.value - res.err) ** q <= 1e-12
        # HiGHS certifies an interval for the optimum
        lp_cost, _, lp_gap = ot_lp(a, b, q)
        assert lp_cost - lp_gap - 1e-9 <= cost <= lp_cost + 1e-9
        assert res.err >= res.value - lp_cost ** (1 / q) - 1e-12
        if n <= 6:
            oracle = brute_force_ot_uniform(xa, xb, q)
            assert abs(cost - oracle**q) <= 1e-9
            assert res.err >= res.value - oracle - 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_assignment_err_bounds_the_excess_of_a_poor_matching(
        self, monkeypatch, seed
    ):
        # the identity matching leaves negative cycles in its reassignment
        # graph; the capped Bellman-Ford rounds and the c-transform must still
        # give a feasible dual, so err covers the whole excess
        monkeypatch.setattr(
            scipy.optimize,
            "linear_sum_assignment",
            lambda C: (np.arange(len(C)), np.arange(len(C))),
        )
        xa, xb = duality_gap_case(seed)
        res, _ = ot_exact(uniform_cloud(xa), uniform_cloud(xb), 2)
        excess = res.value - assignment_cost(xa, xb, 2) ** 0.5
        assert excess > 1e-2
        assert res.err >= excess - 1e-12

    @pytest.mark.parametrize("matching", ["optimal", "identity"])
    def test_assignment_potentials_match_the_round_loop(self, matching):
        # the benchmark's 16x16 problems: np.linalg.norm's cost matrix and
        # the Bellman-Ford distances of the array-per-round loop, bit for
        # bit; the identity matching runs all n rounds on negative cycles
        for xa, xb in benchmark_problems_seed0()["lp16x16"]:
            a, b = uniform_cloud(xa), uniform_cloud(xb)
            C = tvrates.transport._cost_matrix(a, b, 2.0)
            norm = np.linalg.norm(xa[:, None] - xb, axis=-1)
            np.testing.assert_array_equal(C, norm**2.0)
            if matching == "optimal":
                cols = linear_sum_assignment(C)[1]
            else:
                cols = np.arange(16)
            np.testing.assert_array_equal(
                tvrates.transport._reassignment_distances(C, cols),
                reassignment_distances_loop(C, cols),
            )

    def test_dispatch_sends_uniform_equal_sizes_to_assignment(self, monkeypatch):
        # in d > 1 only equal-size, equal-mass pairs are solved; the others
        # are refused before any solve
        calls = []
        solve = tvrates.transport._ot_assignment
        monkeypatch.setattr(
            tvrates.transport, "_ot_assignment",
            lambda *args: calls.append(1) or solve(*args),
        )
        problems = benchmark_problems_seed0()
        for xa, xb in [*problems["lp16x16"], problems["2d"]]:
            ot_exact(uniform_cloud(xa), uniform_cloud(xb), 2)
        assert len(calls) == 33
        rng = np.random.default_rng(9)
        with pytest.raises(PreconditionError, match="got n = 16, m = 12"):
            ot_exact(uniform_atoms(rng, 16, 2), uniform_atoms(rng, 12, 2), 2)
        x = rng.normal(size=(16, 2))
        uneven = AtomSet(x, rng.dirichlet(np.ones(16)))
        with pytest.raises(PreconditionError, match="unequal masses"):
            ot_exact(uneven, uniform_cloud(x + 0.5), 2)
        assert len(calls) == 33

    def test_plan_marginals(self):
        rng = np.random.default_rng(11)
        uneven_1d = (
            uniform_atoms(rng, 8, 1),
            AtomSet(rng.normal(size=(5, 1)), np.array([0.1, 0.2, 0.3, 0.25, 0.15])),
        )
        equal_2d = (uniform_atoms(rng, 8, 2), uniform_atoms(rng, 8, 2, shift=0.5))
        for a, b in (uneven_1d, equal_2d):
            _, plan = ot_exact(a, b, 2)
            np.testing.assert_allclose(plan.matrix.sum(axis=1), a.masses, atol=1e-9)
            np.testing.assert_allclose(plan.matrix.sum(axis=0), b.masses, atol=1e-9)


class TestOtEntropic:
    def test_point_masses(self):
        d0 = AtomSet(np.array([[0.0]]), np.array([1.0]))
        d1 = AtomSet(np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_allclose(ot_entropic(d0, d1, 2).value, 1.0, atol=1e-6)

    def test_coincident_atoms_cost_exactly_zero(self, sweep_counter, kernel_builds):
        # every atom of both sets at one point: the cost matrix is all zero,
        # and the solver returns before any kernel or sweep
        for d in (1, 2):
            a = AtomSet(np.full((3, d), 0.25), np.full(3, 1.0 / 3.0))
            b = AtomSet(np.full((1, d), 0.25), np.array([1.0]))
            res = ot_entropic(a, b, 2)
            assert res.value == 0.0 and res.err == 0.0
        assert sweep_counter["scaling"] == sweep_counter["log_half"] == 0
        assert kernel_builds["kernel"] == kernel_builds["stages"] == 0

    def test_identical_sets_near_zero(self):
        rng = np.random.default_rng(5)
        a = uniform_atoms(rng, 32, 1)
        assert ot_entropic(a, a, 2).value <= 1e-6

    def test_upper_bounds_exact_within_one_percent(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = uniform_atoms(rng, 64, 1)
            b = uniform_atoms(rng, 64, 1, shift=0.4)
            exact, _ = ot_exact(a, b, 2)
            ent = ot_entropic(a, b, 2)
            assert ent.value >= exact.value - 1e-10
            assert (ent.value - exact.value) / exact.value <= 0.01
            assert ent.err >= ent.value - exact.value - 1e-12

    def test_stage_exits_bound_the_work(self, monkeypatch):
        # the near-identical pair needs the deep annealing tail; count the
        # log-sum-exp half sweeps rather than time them
        calls = []
        lse = tvrates.transport._logsumexp_rows
        monkeypatch.setattr(
            tvrates.transport, "_logsumexp_rows", lambda M: calls.append(1) or lse(M)
        )
        x = benchmark_cloud_seed0()
        a, b = uniform_cloud(x), uniform_cloud(x + 0.02)
        ent = ot_entropic(a, b, 2)
        exact = assignment_cost(x, x + 0.02, 2)
        assert exact - 1e-10 <= ent.value**2 <= exact / (1 - 5e-3)
        assert len(calls) <= 2000

    def test_scaling_sweeps_bound_the_work(self, sweep_counter):
        # the same 2000 half sweeps as the log-sum-exp bound above
        x = benchmark_cloud_seed0()
        ent = ot_entropic(uniform_cloud(x), uniform_cloud(x + 0.02), 2)
        exact = assignment_cost(x, x + 0.02, 2)
        assert exact - 1e-10 <= ent.value**2 <= exact / (1 - 5e-3)
        assert sweep_counter["log_half"] == 0
        assert 0 < sweep_counter["scaling"] <= 1000

    @pytest.mark.parametrize(
        "problem, budget", [("near", 200), ("far", 240), ("2d", 800)]
    )
    def test_benchmark_pairs_sweep_budget(self, sweep_counter, problem, budget):
        # over-relaxed stage tails and gap-paced stage exits take 180, 230
        # and 740 sweeps; plain sweeps with one fixed exit took 420, 240, 1500
        a, b = map(uniform_cloud, benchmark_problems_seed0()[problem])
        ot_entropic(a, b, 2)
        assert sweep_counter["scaling"] <= budget

    def test_relaxed_block_that_raises_the_error_falls_back(self, monkeypatch):
        # Dirichlet pair 35 relaxes at the cap OMEGA_MAX; a relaxed block
        # whose row error rises above the one before it on the same kernel
        # is followed by a plain block
        blocks = []
        block = tvrates.transport._scaling_block

        def logged(kernel, u, v, ma, mb, n, omega, out):
            u, v, rows = block(kernel, u, v, ma, mb, n, omega, out)
            blocks.append((kernel[0], omega, np.abs(rows - ma).sum()))
            return u, v, rows

        monkeypatch.setattr(tvrates.transport, "_scaling_block", logged)
        a, b, q = next(itertools.islice(dirichlet_pairs(), 35, None))
        ot_entropic(a, b, q)
        assert max(omega for _, omega, _ in blocks) == tvrates.transport.OMEGA_MAX
        fallbacks = 0
        for (k0, _, e0), (k1, w1, e1), (k2, w2, _) in zip(
            blocks, blocks[1:], blocks[2:]
        ):
            if k0 is k1 is k2 and w1 > 1.0 and e1 > e0:
                assert w2 == 1.0
                fallbacks += 1
        assert fallbacks > 0

    @pytest.mark.parametrize("problem", ["near", "far", "2d"])
    def test_matches_log_domain_reference(self, sweep_counter, problem):
        a, b = map(uniform_cloud, benchmark_problems_seed0()[problem])
        ent = ot_entropic(a, b, 2)
        certified, cost, _, sweeps = sinkhorn_log_domain(a, b, 2)
        assert certified
        assert abs(ent.value - cost**0.5) <= 1e-8 * cost**0.5
        assert sweep_counter["log_half"] == 0
        assert sweep_counter["scaling"] == sweeps

    @pytest.mark.parametrize("schedule", [(0.3, 1e-6), (1e-7,)])
    def test_kernel_underflow_takes_the_log_domain_guard(
        self, sweep_counter, monkeypatch, schedule
    ):
        # a drop to a tiny eps underflows whole kernel rows; the guard redoes
        # the block with log-sum-exp sweeps and the certificate still refuses
        a, b = map(uniform_cloud, benchmark_problems_seed0()["near"])
        certified, _, ref_gap, _ = sinkhorn_log_domain(a, b, 2, reg_schedule=schedule)
        assert not certified
        monkeypatch.setattr(tvrates.transport, "DEFAULT_REG_SCHEDULE", schedule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                ot_entropic(a, b, 2)
        assert sweep_counter["log_half"] > 0
        gap = float(str(info.value).split("duality gap of ")[1].split()[0])
        assert abs(gap - ref_gap) <= 1e-9 * ref_gap

    def test_uneven_masses_never_undercut_the_exact_cost(self):
        # ConvergenceError is allowed (the aim is 0 raising pairs); 6 of the
        # 120 raise today, but two of them end within 16 % of rtol, where
        # round-off-level changes have moved these gaps by up to 13 %, so
        # the bound stays at 7
        # the exact cost: the sorted solver in 1-D, the HiGHS oracle in d > 1
        raised = 0
        for a, b, q in dirichlet_pairs():
            if a.d == 1:
                exact = ot_exact(a, b, q)[0].value
            else:
                exact = ot_lp(a, b, q)[0] ** (1.0 / q)
            try:
                ent = ot_entropic(a, b, q)
            except ConvergenceError:
                raised += 1
                continue
            assert ent.value >= exact - 1e-10
            assert ent.err >= ent.value - exact - 1e-12
        assert raised <= 7

    def test_marginal_exit_never_skips_the_certificate(self, monkeypatch):
        # one coarse stage meets the marginal exit but not the duality gap
        x = benchmark_cloud_seed0()
        a, b = uniform_cloud(x), uniform_cloud(x + 0.02)
        monkeypatch.setattr(tvrates.transport, "DEFAULT_REG_SCHEDULE", (0.3,))
        with pytest.raises(ConvergenceError):
            ot_entropic(a, b, 2)

    @pytest.mark.parametrize("rtol", [math.nan, math.inf, -1.0])
    def test_bad_rtol_rejected(self, sweep_counter, rtol):
        rng = np.random.default_rng(3)
        a, b = uniform_atoms(rng, 4, 1), uniform_atoms(rng, 5, 1, shift=1.0)
        with pytest.raises(PreconditionError, match="rtol"):
            ot_entropic(a, b, 2, rtol=rtol)
        # rejected before any solver work
        assert sweep_counter["scaling"] == 0 and sweep_counter["log_half"] == 0

    def test_one_kernel_per_stage(self, kernel_builds):
        # one build at each stage start, whose scalings also give the
        # stage-end rounded cost; a build per ten-sweep block would be 74
        # over these 15 stages
        a, b = map(uniform_cloud, benchmark_problems_seed0()["2d"])
        ot_entropic(a, b, 2)
        assert kernel_builds["stages"] > 0
        assert kernel_builds["kernel"] == kernel_builds["stages"]

    def test_range_exit_folds_and_rebuilds(
        self, sweep_counter, kernel_builds, monkeypatch
    ):
        # after the drop to 0.03 the carried scalings leave SCALING_RANGE:
        # they are folded into the potentials and the kernel is rebuilt,
        # without a guard trip, and the iterates stay the log-domain ones
        a, b = map(uniform_cloud, benchmark_problems_seed0()["near"])
        schedule = (0.3, 0.03)
        certified, _, ref_gap, _ = sinkhorn_log_domain(a, b, 2, reg_schedule=schedule)
        assert not certified
        monkeypatch.setattr(tvrates.transport, "DEFAULT_REG_SCHEDULE", schedule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                ot_entropic(a, b, 2)
        assert sweep_counter["log_half"] == 0
        assert kernel_builds["kernel"] > kernel_builds["stages"]
        gap = float(str(info.value).split("duality gap of ")[1].split()[0])
        assert abs(gap - ref_gap) <= 1e-9 * ref_gap

    def test_convergence_error_states_the_gap_relative_too(self, monkeypatch):
        # the absolute gap, then the gap relative to the cost beside the
        # relative target
        a, b = map(uniform_cloud, benchmark_problems_seed0()["near"])
        schedule = (0.3, 0.03)
        _, cost, gap, _ = sinkhorn_log_domain(a, b, 2, reg_schedule=schedule)
        monkeypatch.setattr(tvrates.transport, "DEFAULT_REG_SCHEDULE", schedule)
        with pytest.raises(ConvergenceError) as info:
            ot_entropic(a, b, 2)
        assert f"(relative {gap / cost:.1e}, target 5.0e-03 relative)" in str(info.value)

    def test_kernel_has_no_subnormal_entries(self):
        # exponents down to -1000: those below the log of the smallest normal
        # double give 0, the rest their exponential
        Cn = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        K = tvrates.transport._kernel(np.zeros(64), np.zeros(64), Cn, 1e-3)
        normal = -Cn / 1e-3 >= math.log(np.finfo(float).tiny)
        assert np.all(K[~normal] == 0.0)
        np.testing.assert_allclose(K[normal], np.exp(-Cn[normal] / 1e-3), rtol=1e-12)
        assert K[normal].min() >= np.finfo(float).tiny


class TestFmUpper:
    def test_identical(self, std_normal):
        assert fm_upper(std_normal, std_normal).value <= 1e-9

    def test_unit_translate_gives_one(self, std_normal):
        # W_1 of a unit translate is exactly 1 < 2
        got = fm_upper(std_normal, gaussian(1.0, 1.0))
        np.testing.assert_allclose(got.value, 1.0, atol=1e-6)

    def test_cap_at_two(self, std_normal):
        got = fm_upper(std_normal, gaussian(100.0, 1.0))
        assert got.value == 2.0

    def test_atom_sets_use_exact_solver(self):
        a = AtomSet(np.array([[0.0]]), np.array([1.0]))
        b = AtomSet(np.array([[0.25]]), np.array([1.0]))
        got = fm_upper(a, b)
        np.testing.assert_allclose(got.value, 0.25, atol=1e-12)
        assert got.method == "exact-ot"

    def test_grid_density_and_mixed_inputs_rejected(self, std_normal):
        f = discretize(std_normal, SpaceGrid(-10.0, 10.0, 512))
        atoms = AtomSet(np.array([[0.0]]), np.array([1.0]))
        for args in ((f, f), (std_normal, f), (atoms, std_normal)):
            with pytest.raises(PreconditionError, match="expected Gaussian mixtures"):
                fm_upper(*args)


class TestBoundedSupportComparison:
    def test_w1_below_radius_times_tv(self):
        # Kantorovich-Rubinstein: W_1 = sup over 1-Lipschitz g vanishing at 0
        # of int g (f_a - f_b) <= int |x| |f_a - f_b| dx, and rho_1 adds the
        # total variation mass, so W_1 <= rho_1 (for support in [-R, R] the
        # weight |x| is at most R, which gives W_1 <= R tv)
        a = gaussian(0.0, 1.0)
        b = GaussianMixture([0.5, 0.5], [[-1.0], [1.5]], [[[0.7]], [[1.2]]])
        w1 = fm_upper(a, b)
        rho_1 = rho_p(a, b, 1.0)
        assert w1.value + w1.err <= rho_1.value - rho_1.err
