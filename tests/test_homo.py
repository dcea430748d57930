"""Maurer-Cartan structures, constraint systems, solving, integration."""

import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import fixtures, homo, spaces
from cartannet.spaces import SolvCoords, SpaceId

H3 = SpaceId.so(1, 2)
SL4 = SpaceId.sl(4)


def injection_system():
    return homo.build_constraints(homo.r1_mc(1), homo.borel_mc(4))


def restriction_system():
    return homo.build_constraints(homo.borel_mc(4), homo.r1_mc(1))


class TestMCStructures:
    def test_r1_structure(self):
        # oracle: dE^1 = 0 and f^{1+a}_{1,1+a} = +1
        mc = homo.r1_mc(2)
        assert mc.d == 4
        assert np.max(np.abs(mc.f[0])) == 0.0
        for i in range(1, 4):
            assert mc.f[i, 0, i] == 1.0
            assert mc.f[i, i, 0] == -1.0

    def test_borel_sl4_spot_values(self):
        # oracle: hand-computed commutators of the triangular basis
        mc = homo.borel_mc(4)
        idx = {(l.h, l.k): i for i, l in enumerate(mc.labels)}
        f = mc.f
        assert f[idx[1, 1], idx[0, 1], idx[1, 1]] == -2.0
        assert f[idx[1, 2], idx[0, 1], idx[1, 2]] == 1.0
        assert f[idx[3, 1], idx[1, 1], idx[2, 2]] == 1.0
        assert f[idx[3, 1], idx[1, 3], idx[2, 1]] == -1.0

    def test_borel_antisymmetry_and_jacobi(self):
        # oracle: f^l_{im} f^m_{jk} + cyclic(i,j,k) = 0
        for n in (3, 4, 5):
            f = homo.borel_mc(n).f
            assert np.max(np.abs(f + np.swapaxes(f, 1, 2))) == 0.0
            t = np.einsum("lim,mjk->lijk", f, f)
            jac = (t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2))
            assert np.max(np.abs(jac)) < 1e-12

    def test_two_routes_agree_n2_to_7(self):
        for n in range(2, 8):
            homo.borel_mc(n)  # raises on disagreement


class TestConstraints:
    def test_canonical_solution_residual(self):
        assert homo.residual(fixtures.W_canonical(), injection_system()) \
            <= 1e-12

    def test_zero_matrix_is_solution(self):
        C = injection_system()
        assert homo.residual(np.zeros(C.shape), C) == 0.0

    def test_perturbed_canonical_fails(self):
        W = fixtures.W_canonical().W.copy()
        W[2, 0] += 1e-3
        assert homo.residual(W, injection_system()) > 1e-5

    def test_identity_is_endomorphism_solution(self):
        mc = homo.r1_mc(2)
        C = homo.build_constraints(mc, mc)
        assert homo.residual(np.eye(mc.d), C) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            injection_system().residual_stack(np.zeros((1, 3, 9)))


class TestFixtures:
    def rng(self):
        return np.random.default_rng(0)

    def test_family_11(self):
        rng, C = self.rng(), injection_system()
        for _ in range(50):
            d = rng.uniform(-1, 1, 11)
            d[0] = np.sign(d[0] or 1) * (abs(d[0]) + 0.3)
            d[10] = np.sign(d[10] or 1) * (abs(d[10]) + 0.3)
            assert homo.residual(fixtures.W_family_11(d), C) <= 1e-10

    def test_family_12(self):
        rng, C = self.rng(), injection_system()
        for _ in range(50):
            d = rng.uniform(-1, 1, 12)
            d[7] = np.sign(d[7] or 1) * (abs(d[7]) + 0.3)
            assert homo.residual(fixtures.W_family_12(d), C) <= 1e-10

    def test_restrictions(self):
        rng, C = self.rng(), restriction_system()
        cases = [
            (fixtures.restriction_W1, 6, None),
            (fixtures.restriction_W2, 5, 0),
            (fixtures.restriction_W3, 4, None),
            (fixtures.restriction_W7, 4, None),
            (fixtures.restriction_W10, 3, None),
        ]
        for ctor, k, guard in cases:
            for _ in range(50):
                a = rng.uniform(-1, 1, k)
                if guard is not None:
                    a[guard] = np.sign(a[guard] or 1) * (abs(a[guard]) + 0.3)
                assert homo.residual(ctor(a), C) <= 1e-10

    def test_canonical_substitution(self):
        W12 = fixtures.W_family_12(fixtures.delta_canonical()).W
        assert np.array_equal(W12, fixtures.W_canonical().W)


class TestSolveNumeric:
    def test_finds_both_injection_branches(self):
        sols = homo.solve_numeric(injection_system(), seeds=6, seed=0)
        tags = {s.branch_tag for s in sols}
        assert "branch-11" in tags and "branch-12" in tags
        assert all(s.residual <= 1e-10 for s in sols)

    def test_finds_cartan_column_restriction(self):
        sols = homo.solve_numeric(restriction_system(), seeds=6, seed=0)
        assert any(s.branch_tag == "cartan-column-3" for s in sols)

    def test_deterministic(self):
        a = homo.solve_numeric(injection_system(), seeds=3, seed=5)
        b = homo.solve_numeric(injection_system(), seeds=3, seed=5)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert np.array_equal(s.W, t.W)

    def test_solutions_deduplicated(self):
        sols = homo.solve_numeric(injection_system(), seeds=6, seed=1)
        for i, s in enumerate(sols):
            for t in sols[i + 1:]:
                assert np.max(np.abs(s.W - t.W)) > 1e-6

    def test_benchmark_solution_set(self):
        # the solution set the homo-geometry benchmark checks every run
        for system, want in (
            (injection_system(), {"branch-11": 8, "branch-12": 8, "untagged": 8}),
            (restriction_system(), {"cartan-column-3": 8, "untagged": 8}),
        ):
            sols = homo.solve_numeric(system, seeds=8, seed=0)
            assert dict(collections.Counter(s.branch_tag for s in sols)) == want
            assert all(homo.residual(s.W, system) <= 1e-10 for s in sols)

    def test_square_systems_find_identity(self):
        for name in ("r1(2)", "borel_sl(3)"):
            mc = homo.mc_for_name(name)
            system = homo.build_constraints(mc, mc)
            sols = homo.solve_numeric(system, seeds=3, seed=0)
            assert any(np.array_equal(s.W, np.eye(mc.d)) for s in sols)
            assert all(s.residual <= 1e-10 for s in sols)

    def test_starts_without_descent_are_dropped(self):
        # every entry fixed away from a solution: no step can descend, so
        # no start survives to the polish
        system = injection_system()
        X0 = np.full((3, 27), 0.3)
        got = homo._lockstep_gauss_newton(system, X0, np.zeros_like(X0, bool))
        assert got.shape == (0, 27)

    def test_large_system_memory(self):
        # borel_sl(5) -> borel_sl(5): m = 1274 residuals in n = 196
        # unknowns; a dense m x n x n Jacobian tensor alone would be 390 MB
        mc = homo.borel_mc(5)
        system = homo.build_constraints(mc, mc)
        tracemalloc.start()
        try:
            sols = homo.solve_numeric(system, seeds=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert any(np.array_equal(s.W, np.eye(mc.d)) for s in sols)


class TestHomomorphismLaw:
    def test_respects_group_product(self):
        # oracle: h(u . w) = h(u) . h(w) for the closed-form layer map
        from cartannet import spaces
        rng = np.random.default_rng(1)
        src, tgt = SpaceId.so(1, 4), SpaceId.so(1, 2)
        for _ in range(100):
            W = rng.uniform(-1, 1, (2, 4))
            b = rng.uniform(-1, 1, 2)
            u = SolvCoords(src, rng.uniform(-1, 1, 5))
            w = SolvCoords(src, rng.uniform(-1, 1, 5))
            lhs = homo.r1_homomorphism(W, b, spaces.group_product(u, w))
            rhs = spaces.group_product(
                homo.r1_homomorphism(W, b, u), homo.r1_homomorphism(W, b, w))
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12

    def test_composition_identity(self):
        # oracle: composing layers gives (W2 W1, b2 + W2 b1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            W1 = rng.uniform(-1, 1, (3, 4))
            b1 = rng.uniform(-1, 1, 3)
            W2 = rng.uniform(-1, 1, (2, 3))
            b2 = rng.uniform(-1, 1, 2)
            x = SolvCoords(SpaceId.so(1, 4), rng.uniform(-1, 1, 5))
            two_step = homo.r1_homomorphism(
                W2, b2, homo.r1_homomorphism(W1, b1, x))
            one_step = homo.r1_homomorphism(W2 @ W1, b2 + W2 @ b1, x)
            assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12


class TestCoframe:
    def test_r1_closed_form(self):
        E = homo.coframe(H3, np.array([0.2, 0.5, -0.3]))
        want = np.eye(3)
        want[1, 0], want[2, 0] = 0.5, -0.3
        assert np.max(np.abs(E - want)) < 1e-14

    def test_mc_equations_close(self):
        # oracle: d e^i = -1/2 f^i_jk e^j ^ e^k, checked by finite
        # differences of the coframe matrix
        rng = np.random.default_rng(3)
        for space, mc in ((H3, homo.r1_mc(1)), (SL4, homo.borel_mc(4))):
            x = rng.uniform(-0.5, 0.5, space.dim)
            h = 1e-5
            d = space.dim
            E0 = homo.coframe(space, x)
            dE = np.zeros((d, d, d))  # dE[i, j, k] = d_j E^i_k
            for j in range(d):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                dE[:, j, :] = (homo.coframe(space, xp)
                               - homo.coframe(space, xm)) / (2 * h)
            # exterior derivative coefficient on dY_j ^ dY_k (j < k)
            ext = dE[:, :, :].transpose(0, 1, 2) - dE.transpose(0, 2, 1)
            quad = np.einsum("ijk,ja,kb->iab", mc.f, E0, E0)
            resid = ext + quad
            assert np.max(np.abs(resid)) < 1e-7


class TestCoframeEveryFamily:
    """One coframe for every family: the Maurer-Cartan equations close on
    higher-rank so charts, and r=1 reproduces the closed form."""

    @staticmethod
    def mc_residual(space, x, h=1e-5):
        # d e^i + 1/2 f^i_jk e^j ^ e^k by central differences of E
        d, f = space.dim, homo.mc_structure(space).f
        dE = np.zeros((d, d, d))  # dE[i, j, k] = d_j E^i_k
        for j in range(d):
            step = np.zeros(d)
            step[j] = h
            dE[:, j, :] = (homo.coframe(space, x + step)
                           - homo.coframe(space, x - step)) / (2 * h)
        E = homo.coframe(space, x)
        return (dE - dE.transpose(0, 2, 1)
                + np.einsum("ijk,ja,kb->iab", f, E, E))

    @pytest.mark.parametrize("space", [SpaceId.so(2, 1), SpaceId.so(2, 3),
                                       SpaceId.so(3, 2)],
                             ids=str)
    def test_mc_equations_close_on_higher_rank(self, space):
        rng = np.random.default_rng(17)
        for _ in range(3):
            x = rng.uniform(-0.5, 0.5, space.dim)
            assert np.max(np.abs(self.mc_residual(space, x))) < 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_r1_matches_closed_form(self, n):
        # oracle: E^1 = dw1, E^{1+a} = w_{1+a} dw1 + dw_{1+a}
        space = spaces.hyperbolic(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, space.dim)
            want = np.eye(space.dim)
            want[1:, 0] = x[1:]
            assert np.max(np.abs(homo.coframe(space, x) - want)) <= 1e-14


class TestIntegration:
    def test_canonical_embedding(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            w = rng.uniform(-0.7, 0.7, 3)
            got = homo.integrate_coordinate_map(
                fixtures.W_canonical(), SolvCoords(H3, w))
            want = fixtures.phi_canonical(w)
            assert np.max(np.abs(got.values - want.values)) < 1e-8

    def test_restriction_map_at_zero_offsets(self):
        # the closed-form restriction map has no constant offset when the
        # first and third parameters vanish, so it matches the integrator
        rng = np.random.default_rng(5)
        a = np.array([0.0, 0.8, 0.0, -0.3])
        x = rng.uniform(-0.5, 0.5, 9)
        got = homo.integrate_coordinate_map(
            fixtures.restriction_W3(a), SolvCoords(SL4, x))
        want = fixtures.phi_restriction_W3(a, x)
        assert np.max(np.abs(got.values - want.values)) < 1e-8

    def test_r1_layer_map(self):
        # oracle: for M = [[1, 0], [b, W]] the coordinate map is the
        # network's closed-form layer map (Y1, W Y2 + (1 - e^{-Y1}) b)
        rng = np.random.default_rng(6)
        for n_src, n_tgt in ((5, 3), (17, 9), (12, 11)):
            src, tgt = spaces.hyperbolic(n_src), spaces.hyperbolic(n_tgt)
            W = rng.uniform(-1, 1, (n_tgt - 1, n_src - 1))
            b = rng.uniform(-1, 1, n_tgt - 1)
            M = np.zeros((n_tgt, n_src))
            M[0, 0] = 1.0
            M[1:, 0] = b
            M[1:, 1:] = W
            for _ in range(5):
                x = SolvCoords(src, rng.uniform(-1, 1, n_src))
                got = homo.integrate_coordinate_map(
                    homo.HomoMatrix(W=M, source=src, target=tgt), x)
                want = homo.r1_homomorphism(W, b, x, tgt)
                assert np.max(np.abs(got.values - want.values)) < 1e-12

    def test_homomorphism_law(self):
        # oracle: sigma(Phi(u . v)) = sigma(Phi(u)) sigma(Phi(v))
        rng = np.random.default_rng(7)
        W = fixtures.W_canonical()

        def image(c):
            return spaces.sigma(homo.integrate_coordinate_map(W, c)).matrix

        for _ in range(10):
            u = SolvCoords(H3, rng.uniform(-1, 1, 3))
            v = SolvCoords(H3, rng.uniform(-1, 1, 3))
            lhs = image(spaces.group_product(u, v))
            assert np.max(np.abs(lhs - image(u) @ image(v))) < 1e-12

    def test_canonical_embedding_far_out(self):
        # out to |w| <= 10, relative to the size of the exact image
        rng = np.random.default_rng(8)
        for scale in (2.0, 5.0, 10.0):
            for _ in range(5):
                w = rng.uniform(-scale, scale, 3)
                got = homo.integrate_coordinate_map(
                    fixtures.W_canonical(), SolvCoords(H3, w)).values
                want = fixtures.phi_canonical(w).values
                assert np.max(np.abs(got - want)) <= 1e-13 * max(
                    1.0, np.max(np.abs(want)))

    def test_zero_input_maps_to_origin(self):
        out = homo.integrate_coordinate_map(
            fixtures.W_canonical(), SolvCoords(H3, np.zeros(3)))
        assert np.max(np.abs(out.values)) < 1e-12


PROPERTY = settings(max_examples=30)


def away(p, i, gap=0.3):
    """Move parameter i of p to |p_i| >= gap (off a pole of its family)."""
    p[i] = np.copysign(abs(p[i]) + gap, p[i])
    return p


def r1_layer_map(draw, n_src, n_tgt):
    """The homomorphism matrix [[1, 0], [b, W]] of an r=1 layer map."""
    M = np.zeros((n_tgt, n_src))
    M[0, 0] = 1.0
    M[1:] = draw(hnp.arrays(float, (n_tgt - 1, n_src),
                            elements=st.floats(-1.0, 1.0)))  # [b, W]
    return homo.HomoMatrix(W=M, source=spaces.hyperbolic(n_src),
                           target=spaces.hyperbolic(n_tgt))


FAMILIES = {
    "W_canonical": lambda p: fixtures.W_canonical(),
    "W_family_11": lambda p: fixtures.W_family_11(away(p[:11], 0)),
    "W_family_12": lambda p: fixtures.W_family_12(away(p[:12], 7)),
    "restriction_W1": lambda p: fixtures.restriction_W1(p[:6]),
    "restriction_W2": lambda p: fixtures.restriction_W2(away(p[:5], 0)),
    "restriction_W3": lambda p: fixtures.restriction_W3(p[:4]),
    "restriction_W7": lambda p: fixtures.restriction_W7(p[:4]),
    "restriction_W10": lambda p: fixtures.restriction_W10(p[:3]),
}


@st.composite
def coordinate_maps(draw, bound=1.0):
    """(W, X): a fixture family member or an r=1 layer map, with a batch X
    of 1-6 source points, |x| <= bound."""
    name = draw(st.sampled_from(sorted(FAMILIES) + ["r1 5->3", "r1 9->5"]))
    if name.startswith("r1"):
        n_src, n_tgt = map(int, name[3:].split("->"))
        W = r1_layer_map(draw, n_src, n_tgt)
    else:
        p = draw(hnp.arrays(float, 12, elements=st.floats(-1.0, 1.0)))
        W = FAMILIES[name](p)
    X = draw(hnp.arrays(float, (draw(st.integers(1, 6)), W.source.dim),
                        elements=st.floats(-bound, bound)))
    return W, X


def expm_product(W, x):
    """oracle: sigma_tgt^{-1}(prod_k expm(a_k phi(T_k))), one scipy expm
    per source generator."""
    gens = spaces.solvable_generators(W.target).generators
    images = np.einsum("ik,imn->kmn", W.W, np.stack(gens))
    L = np.eye(W.target.N)
    for a, T in zip(spaces.exp_factors(W.source, x), images):
        L = L @ scipy.linalg.expm(a * T)
    return spaces.sigma_inv_matrix(W.target, L)


def counting_expm():
    return mock.patch.object(scipy.linalg, "expm", wraps=scipy.linalg.expm)


def non_commuting_cartans(W):
    """Source Cartan images phi(T_k) whose diagonal D and strictly upper
    part N do not commute."""
    gens = spaces.solvable_generators(W.target).stack
    images = np.einsum("ik,imn->kmn", W.W, gens)
    cartans = W.source.r if W.source.family == "so" else W.source.N - 1
    count = 0
    for T in images[:cartans]:
        D = np.diag(np.diag(T))
        N = T - D
        count += bool((D @ N - N @ D).any())
    return count


class TestCoordinateMapBatch:
    """The batched closed-form coordinate map against its single-point
    wrapper, a per-generator expm product and the fixture maps."""

    @PROPERTY
    @given(coordinate_maps())
    def test_rows_equal_single_calls(self, case):
        W, X = case
        got = homo.coordinate_map_batch(W, X)
        assert got.shape == (len(X), W.target.dim)
        for x, row in zip(X, got):
            want = homo.integrate_coordinate_map(
                W, SolvCoords(W.source, x)).values
            assert np.max(np.abs(row - want)) <= 1e-14 * max(
                1.0, np.max(np.abs(want)))

    @PROPERTY
    @given(coordinate_maps())
    def test_matches_expm_product(self, case):
        W, X = case
        got = homo.coordinate_map_batch(W, X)
        for x, row in zip(X, got):
            want = expm_product(W, x)
            assert np.max(np.abs(row - want)) <= 1e-12 * max(
                1.0, np.max(np.abs(want)))

    @PROPERTY
    @given(hnp.arrays(float, (4, 3), elements=st.floats(-10.0, 10.0)))
    def test_canonical_far_out(self, w):
        got = homo.coordinate_map_batch(fixtures.W_canonical(), w)
        for x, row in zip(w, got):
            want = fixtures.phi_canonical(x).values
            assert np.max(np.abs(row - want)) <= 1e-13 * max(
                1.0, np.max(np.abs(want)))

    @PROPERTY
    @given(coordinate_maps())
    def test_complex_step_matches_central_differences(self, case):
        W, X = case
        d = W.source.dim
        for j in range(d):
            step = np.zeros(d)
            step[j] = 1.0
            cs = np.imag(homo.coordinate_map_batch(W, X + 1e-20j * step))
            cs = cs / 1e-20
            fd = (homo.coordinate_map_batch(W, X + 1e-6 * step)
                  - homo.coordinate_map_batch(W, X - 1e-6 * step)) / 2e-6
            assert np.max(np.abs(cs - fd)) <= 1e-7 * max(
                1.0, np.max(np.abs(cs)))

    @pytest.mark.parametrize("v", [1e-310, 1e-318, 5e-324])
    def test_complex_step_at_a_subnormal_gap(self, v):
        # W_10's Cartan image has the gap c = v, where 1 / c is inf
        W = fixtures.restriction_W10((v, v, v))
        X = np.random.default_rng(0).uniform(-1.0, 1.0, (2, W.source.dim))
        step = np.eye(W.source.dim)[0]
        cs = np.imag(homo.coordinate_map_batch(W, X + 1e-20j * step)) / 1e-20
        fd = (homo.coordinate_map_batch(W, X + 1e-6 * step)
              - homo.coordinate_map_batch(W, X - 1e-6 * step)) / 2e-6
        assert np.max(np.abs(cs - fd)) <= 1e-7 * max(1.0, np.max(np.abs(cs)))
        for x, row in zip(X, homo.coordinate_map_batch(W, X)):
            assert np.max(np.abs(row - expm_product(W, x))) <= 1e-13

    @PROPERTY
    @given(coordinate_maps())
    def test_expm_calls_per_non_commuting_cartan_image(self, case):
        W, X = case
        with counting_expm() as expm:
            homo.coordinate_map_batch(W, X)
        assert expm.call_count <= non_commuting_cartans(W)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_expm_calls_do_not_grow_with_the_batch(self, rows):
        # W_canonical and r=1 layer maps are closed-form throughout
        rng = np.random.default_rng(rows)
        M = np.zeros((3, 5))
        M[0, 0] = 1.0
        M[1:] = rng.uniform(-1, 1, (2, 5))
        layer = homo.HomoMatrix(W=M, source=spaces.hyperbolic(5),
                                target=spaces.hyperbolic(3))
        for W in (fixtures.W_canonical(), layer):
            with counting_expm() as expm:
                homo.coordinate_map_batch(
                    W, rng.uniform(-1, 1, (rows, W.source.dim)))
            assert expm.call_count == 0
        # a generic W_family_11 Cartan image: one expm on the whole stack
        d = away(away(rng.uniform(-1, 1, 11), 0), 10)
        with counting_expm() as expm:
            homo.coordinate_map_batch(fixtures.W_family_11(d),
                                      rng.uniform(-1, 1, (rows, 3)))
        assert expm.call_count == 1

    def test_leading_axes_and_checks(self):
        W = fixtures.W_canonical()
        X = np.random.default_rng(9).uniform(-1, 1, (2, 3, 3))
        got = homo.coordinate_map_batch(W, X)
        assert got.shape == (2, 3, 9)
        assert np.array_equal(got.reshape(6, 9),
                              homo.coordinate_map_batch(W, X.reshape(6, 3)))
        with pytest.raises(ValueError):
            homo.coordinate_map_batch(W, np.zeros((2, 9)))
        with pytest.raises(ValueError):
            homo.coordinate_map_batch(homo.HomoMatrix(W=W.W), np.zeros(3))

    def test_source_points_are_bounded(self):
        # refused before any exp, so no RuntimeWarning escapes (the suite
        # turns one into an error)
        W = fixtures.W_canonical()
        for x in ([800.0, 0.0, 0.0], [-800.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(spaces.CartanBoundError):
                homo.coordinate_map_batch(W, x)
        with pytest.raises(spaces.FactorizationError):
            homo.coordinate_map_batch(W, [0.1, 1e200, 0.0])

    def test_w_shape_is_checked(self):
        W = homo.HomoMatrix(W=np.zeros((9, 3)), source=spaces.hyperbolic(5),
                            target=SL4)
        with pytest.raises(ValueError, match=r"\(9, 3\).*\(9, 5\)"):
            homo.coordinate_map_batch(W, np.zeros(5))


def plan_cases():
    """W_canonical, restriction_W3, an r=1 layer map and a generic
    W_family_11, whose Cartan image takes the expm path."""
    rng = np.random.default_rng(17)
    layer = np.zeros((3, 5))
    layer[0, 0] = 1.0
    layer[1:] = rng.uniform(-1, 1, (2, 5))
    return [
        fixtures.W_canonical(),
        fixtures.restriction_W3(rng.uniform(-1, 1, 4)),
        homo.HomoMatrix(W=layer, source=spaces.hyperbolic(5),
                        target=spaces.hyperbolic(3)),
        fixtures.W_family_11(away(away(rng.uniform(-1, 1, 11), 0), 10)),
    ]


class TestMapPlan:
    """The per-W plan of coordinate_map_batch: built once per W contents,
    read-only, and invisible in the outputs."""

    def test_equal_contents_build_one_plan(self):
        W = fixtures.W_canonical()
        homo._map_plan.cache_clear()
        for _ in range(3):
            homo.coordinate_map_batch(W, np.zeros(3))
        fresh = homo.HomoMatrix(W=W.W.copy(), source=W.source,
                                target=W.target)
        homo.coordinate_map_batch(fresh, np.zeros(3))
        info = homo._map_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_in_place_mutation_replans(self):
        W = fixtures.restriction_W3(np.array([0.0, 0.4, 0.0, -0.7]))
        x = np.random.default_rng(3).uniform(-0.5, 0.5, (4, 9))
        before = homo.coordinate_map_batch(W, x)
        W.W[:, 2] *= 0.5
        after = homo.coordinate_map_batch(W, x)
        homo._map_plan.cache_clear()
        assert after.tobytes() == homo.coordinate_map_batch(W, x).tobytes()
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("case", range(4))
    def test_plan_arrays_are_read_only(self, case):
        W = plan_cases()[case]
        M = np.asarray(W.W)
        plan = homo._map_plan(M.tobytes(), M.dtype, M.shape, W.source,
                              W.target)
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 4
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("case", range(4))
    def test_cold_and_warm_outputs_are_byte_identical(self, case):
        W = plan_cases()[case]
        rng = np.random.default_rng(case)
        for X in (rng.uniform(-1, 1, W.source.dim),
                  rng.uniform(-1, 1, (5, W.source.dim)),
                  rng.uniform(-1, 1, (5, W.source.dim))
                  + 1e-20j * rng.uniform(-1, 1, (5, W.source.dim))):
            homo._map_plan.cache_clear()
            cold = homo.coordinate_map_batch(W, X)
            warm = homo.coordinate_map_batch(W, X)
            assert cold.tobytes() == warm.tobytes()


class TestNaming:
    def test_algebra_names(self):
        assert homo.space_for_name("r1(1)") == H3
        assert homo.space_for_name("borel_sl(4)") == SL4
        assert homo.space_for_name("solv_so(1,3)") == H3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            homo.space_for_name("sp(4)")
