"""The r=1 closed forms on the hyperboloid vector: the batched
fiber-rotation kernel and the single-point isometry action, against the
single-point matrix pipeline (near the origin) and a 50-digit mpmath
rotation (far from it)."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import isometry, net, spaces
from cartannet.spaces import SolvCoords

SPACES = [spaces.hyperbolic(n) for n in (3, 5, 9, 17)]
PROPERTY = settings(max_examples=30)
H = 1e-30  # complex step


def coset_action(g, coords):
    """The matrix pipeline sigma -> M -> g M g^T -> Crout -> sigma^{-1}."""
    M = spaces.to_coset(spaces.sigma(coords)).matrix
    return spaces.sigma_inv(spaces.cholesky_crout(spaces.CosetPoint(
        coords.space, g.matrix @ M @ g.matrix.T)))


def oracle(space, values, angles, action=coset_action):
    """``action`` o fiber_rotation, one generator at a time."""
    coords = SolvCoords(space, values)
    for gen, angle in zip(isometry.build_fiber_generators(space), angles):
        coords = action(isometry.fiber_rotation(gen, angle), coords)
    return coords.values


@st.composite
def batches(draw, low=-1.0, high=1.0, max_rows=4):
    """(space, values (B, d), angles) with |coords| <= 1 by default."""
    space = draw(st.sampled_from(SPACES))
    rows = draw(st.integers(1, max_rows))
    values = draw(hnp.arrays(float, (rows, space.dim),
                             elements=st.floats(low, high)))
    angles = draw(hnp.arrays(float, (space.fiber_dim,),
                             elements=st.floats(-np.pi, np.pi)))
    return space, values, angles


def hyperboloid(values):
    """(R, P, s) of v = (e^w1 (1 + s.s/4), s/sqrt2, -e^-w1) in the diagonal
    eta basis, with R = v_0 - v_{N-1} and P = v_0 + v_{N-1}."""
    w1, s = values[..., 0], values[..., 1:]
    up = np.exp(w1) * (1.0 + 0.25 * np.sum(s * s, axis=-1))
    down = np.exp(-w1)
    return np.concatenate([(up + down)[..., None], (up - down)[..., None], s],
                          axis=-1)


def givens_loop_vjp(space, values, angles, grad):
    """The fiber rotations and their pullback as one Givens rotation per
    angle, in coordinates: (P, s_{1+j}) rotated in index order, then back
    in reverse order.  Returns (out, g_values, g_angles) for rows
    (B, d)."""
    w1, s = values[:, 0], values[:, 1:]
    eup, down = np.exp(w1), np.exp(-w1)
    up = eup * (1.0 + 0.25 * np.sum(s * s, axis=1))
    R, P = up + down, up - down
    cos, sin = np.cos(angles), np.sin(angles)
    s_out = s.copy()
    Ps = []
    for j in range(space.fiber_dim):
        s_out[:, 1 + j] = cos[j] * s[:, 1 + j] - sin[j] * P
        P = cos[j] * P + sin[j] * s[:, 1 + j]
        Ps.append(P)
    upper = P > 0
    T = (np.where(upper, 4.0 + np.sum(s_out * s_out, axis=1), R - P)
         / np.where(upper, 2.0 * (R + P), 2.0))
    out = np.column_stack([-np.log(T), s_out])
    g_T = -grad[:, 0] / T
    RP = np.where(upper, R + P, 1.0)  # R + P may round to 0 where P < 0
    g_R = np.where(upper, -g_T * T / RP, 0.5 * g_T)
    g_P = np.where(upper, g_R, -0.5 * g_T)
    g_s = grad[:, 1:] + np.where(upper, g_T / RP, 0.0)[:, None] * s_out
    g_angles = np.zeros(space.fiber_dim)
    for j in reversed(range(space.fiber_dim)):
        g_x = g_s[:, 1 + j].copy()
        g_angles[j] = np.sum(g_P * s_out[:, 1 + j] - g_x * Ps[j])
        g_P, g_s[:, 1 + j] = (cos[j] * g_P - sin[j] * g_x,
                              sin[j] * g_P + cos[j] * g_x)
    g_up, g_down = g_R + g_P, g_R - g_P
    g_s += (0.5 * g_up * eup)[:, None] * s
    g_w1 = g_up * up - g_down * down
    return out, np.column_stack([g_w1, g_s]), g_angles


class TestAgainstOracle:
    @PROPERTY
    @given(batches())
    def test_values_match_crout_pipeline(self, case):
        space, values, angles = case
        got = isometry.fiber_rotate(space, values, angles)
        assert got.shape == values.shape and got.dtype == float
        for row, out in zip(values, got):
            want = oracle(space, row, angles)
            assert np.max(np.abs(out - want)) <= 1e-12
            single = isometry.fiber_rotate(space, row, angles)
            assert single.shape == row.shape
            assert np.max(np.abs(single - want)) <= 1e-12

    @settings(PROPERTY, max_examples=12)
    @given(batches(max_rows=1))
    def test_complex_step_derivatives_match_oracle(self, case):
        # d/dx_k and d/da_k by complex step through both paths
        space, values, angles = case
        for k in range(space.dim):
            z = values.astype(complex)
            z[:, k] += 1j * H
            got = np.imag(isometry.fiber_rotate(space, z, angles)) / H
            for row, d in zip(z, got):
                want = np.imag(oracle(space, row, angles.astype(complex))) / H
                assert np.max(np.abs(d - want)) <= 1e-10 * max(
                    1.0, np.max(np.abs(want)))
        for k in range(space.fiber_dim):
            b = angles.astype(complex)
            b[k] += 1j * H
            got = np.imag(isometry.fiber_rotate(space, values, b)) / H
            for row, d in zip(values, got):
                want = np.imag(oracle(space, row.astype(complex), b)) / H
                assert np.max(np.abs(d - want)) <= 1e-10 * max(
                    1.0, np.max(np.abs(want)))


class TestFarFromOrigin:
    """|w1| in [20, 40], where the Crout pipeline cannot factor gMg^T.

    A point at distance ~40 from the origin has a hyperboloid vector with
    entries near e^40 ~ 2e17, which float64 holds to about 30.  A fiber
    rotation mixes that size into the fiber coordinates, so the
    coordinates of a rotated-and-unrotated point carry that absolute error
    for any float64 implementation.  The round trip is therefore checked on
    the hyperboloid vector, relative to its size."""

    @staticmethod
    def far(values):
        w1 = values[:, 0]
        values = values.copy()
        values[:, 0] = np.where(w1 < 0, -20.0, 20.0) + w1
        return values

    @PROPERTY
    @given(batches(low=-20.0, high=20.0))
    def test_rotate_then_undo_returns_input(self, case):
        space, values, angles = case
        values[:, 1:] /= 20.0
        values = self.far(values)
        out = isometry.fiber_rotate(space, values, angles)
        assert np.all(np.isfinite(out))
        back = out
        for j in reversed(range(space.fiber_dim)):
            undo = np.zeros(space.fiber_dim)
            undo[j] = -angles[j]
            back = isometry.fiber_rotate(space, back, undo)
        v, v_back = hyperboloid(values), hyperboloid(back)
        scale = np.max(np.abs(v), axis=-1, keepdims=True)
        assert np.max(np.abs(v_back - v) / scale) <= 1e-12
        # R = sqrt(2) cosh(distance to the origin) is invariant
        R, R_out = v[:, 0], hyperboloid(out)[:, 0]
        assert np.max(np.abs(R_out / R - 1.0)) <= 1e-12

    def test_crout_pipeline_fails_there(self):
        # the closed-form single-point action does not: it agrees with the
        # batched kernel on the hyperboloid vector
        space = spaces.hyperbolic(5)
        x = np.array([40.0, 0.5, -0.3, 0.2, 0.1])
        a = np.array([0.7, -0.4, 1.2])
        with pytest.raises(spaces.FactorizationError):
            oracle(space, x, a)
        got = isometry.fiber_rotate(space, x, a)
        assert np.all(np.isfinite(got))
        action = oracle(space, x, a, isometry.isometry_action)
        assert np.all(np.isfinite(action))
        v, v_action = hyperboloid(got), hyperboloid(action)
        assert np.max(np.abs(v_action - v)) <= 1e-12 * np.max(np.abs(v))


def mp_fiber_action(space, j, angle, values):
    """Fiber rotation j by ``angle`` of r=1 coordinates, as v -> g v on the
    hyperboloid vector in 50-digit arithmetic.  The generator's entries are
    0 and +-1/sqrt2, so g = I + sin(angle) F + (1 - cos(angle)) F^2 is
    built to that precision."""
    with mpmath.workdps(50):
        F = isometry.build_fiber_generators(space)[j].matrix
        F = mpmath.matrix(np.rint(F * np.sqrt(2.0)).tolist()) / mpmath.sqrt(2)
        g = (mpmath.eye(space.N) + mpmath.sin(angle) * F
             + (1 - mpmath.cos(angle)) * F * F)
        w1, *s = (mpmath.mpf(float(x)) for x in values)
        v = g * mpmath.matrix(
            [mpmath.exp(w1) * (1 + sum(x * x for x in s) / 4),
             *(x / mpmath.sqrt(2) for x in s), -mpmath.exp(-w1)])
        return np.array([float(-mpmath.log(-v[space.N - 1]))]
                        + [float(mpmath.sqrt(2) * v[i])
                           for i in range(1, space.N - 1)])


ACTION_SPACES = [spaces.hyperbolic(n) for n in (3, 5, 17)]


@st.composite
def points(draw, high, rows=st.integers(1, 4)):
    """(space, values (B, d)) on H^3, H^5, H^17 with |coords| <= high."""
    space = draw(st.sampled_from(ACTION_SPACES))
    values = draw(hnp.arrays(float, (draw(rows), space.dim),
                             elements=st.floats(-high, high)))
    return space, values


def element(space, kind, seed):
    """A fiber rotation, a paint rotation, a solvable element sigma(u) (as
    ``classify_element`` tags it) or a fiber rotation followed by the swap
    of e_0 and e_{N-1}, which maps the hyperboloid vector to the other
    sheet; with u for the solvable element, else None."""
    rng = np.random.default_rng(seed)
    if kind == "sheet":
        swap = np.eye(space.N)[[-1, *range(1, space.N - 1), 0]]
        g, _ = element(space, "fiber", seed)
        return isometry.classify_element(swap @ g.matrix, space), None
    if kind == "fiber":
        gens = isometry.build_fiber_generators(space)
        return isometry.fiber_rotation(gens[rng.integers(len(gens))],
                                       rng.uniform(-np.pi, np.pi)), None
    if kind == "paint":
        O, _ = np.linalg.qr(rng.normal(size=(space.subpaint_dim,) * 2))
        return isometry.embedded_paint(isometry.PaintRotation(space, O)), None
    u = SolvCoords(space, rng.uniform(-1.0, 1.0, space.dim))
    return isometry.classify_element(spaces.sigma(u).matrix, space), u


KINDS = st.sampled_from(["fiber", "paint", "solvable", "sheet"])
SEEDS = st.integers(0, 2 ** 32 - 1)


class TestClosedFormAction:
    """``isometry_action`` on r=1: v -> g v on the hyperboloid vector, with
    no coset matrix and no Crout."""

    @PROPERTY
    @given(points(10.0, rows=st.just(1)), st.data())
    def test_matches_mpmath(self, case, data):
        # relative to the size of the result: float64 holds a coordinate
        # of size c (up to ~1e7 here) to about c * 1e-16 at best
        space, values = case
        j = data.draw(st.integers(0, space.fiber_dim - 1))
        angle = data.draw(st.floats(-np.pi, np.pi))
        g = isometry.fiber_rotation(isometry.build_fiber_generators(space)[j],
                                    angle)
        got = isometry.isometry_action(g, SolvCoords(space, values[0])).values
        want = mp_fiber_action(space, j, angle, values[0])
        assert np.max(np.abs(got - want)) <= 1e-10 * max(
            1.0, np.max(np.abs(want)))

    @PROPERTY
    @given(points(1.0), KINDS, SEEDS)
    def test_matches_coset_pipeline(self, case, kind, seed):
        space, values = case
        g, u = element(space, kind, seed)
        assert g.kind == {"fiber": "grassmannian",
                          "sheet": "grassmannian"}.get(kind, kind)
        rows = isometry._r1_action(g.matrix, values)
        assert rows.shape == values.shape
        for row, got in zip(values, rows):
            p = SolvCoords(space, row)
            want = coset_action(g, p).values
            single = isometry.isometry_action(g, p).values
            assert np.max(np.abs(single - want)) <= 1e-12
            assert np.max(np.abs(got - single)) <= 1e-15
            if u is not None:
                product = spaces.group_product(u, p).values
                assert np.max(np.abs(single - product)) <= 1e-12

    @settings(PROPERTY, max_examples=12)
    @given(points(1.0, rows=st.just(1)), KINDS, SEEDS)
    def test_complex_step_derivatives_match_pipeline(self, case, kind, seed):
        space, values = case
        g, _ = element(space, kind, seed)
        for k in range(space.dim):
            z = values[0].astype(complex)
            z[k] += 1j * H
            got = np.imag(isometry.isometry_action(
                g, SolvCoords(space, z)).values) / H
            want = np.imag(coset_action(g, SolvCoords(space, z)).values) / H
            assert np.max(np.abs(got - want)) <= 1e-10 * max(
                1.0, np.max(np.abs(want)))

    @PROPERTY
    @given(points(10.0, rows=st.just(2)), KINDS, SEEDS)
    def test_distances_invariant(self, case, kind, seed):
        space, values = case
        g, _ = element(space, kind, seed)
        p, q = (SolvCoords(space, row) for row in values)
        d0 = spaces.coords_distance(p, q)
        d1 = spaces.coords_distance(isometry.isometry_action(g, p),
                                    isometry.isometry_action(g, q))
        assert abs(d1 - d0) <= 1e-8

    @pytest.mark.parametrize("space", [spaces.hyperbolic(2), *ACTION_SPACES])
    def test_refusals(self, space):
        if space.fiber_dim:
            g = isometry.fiber_rotation(
                isometry.build_fiber_generators(space)[0], 0.7)
        else:  # H^2 has no fiber: a solvable element
            g = isometry.classify_element(spaces.sigma(SolvCoords(
                space, np.array([0.3, -0.5]))).matrix, space)
        x = np.zeros(space.dim)
        x[0] = spaces.CARTAN_BOUND
        assert np.all(np.isfinite(
            isometry.isometry_action(g, SolvCoords(space, x)).values))
        for w1 in (np.nextafter(spaces.CARTAN_BOUND, np.inf),
                   -2.0 * spaces.CARTAN_BOUND):
            x[0] = w1
            with pytest.raises(spaces.CartanBoundError):
                isometry.isometry_action(g, SolvCoords(space, x))
        rows = np.zeros((3, space.dim))
        rows[1, 0] = np.nan
        with pytest.raises(spaces.CartanBoundError,
                           match="not finite or beyond the bound"):
            isometry._r1_action(g.matrix, rows)
        # e^{300} (1 + s.s/4) overflows: no coset matrix has a factor
        x = np.zeros(space.dim)
        x[0], x[1] = spaces.CARTAN_BOUND, 1e200
        with pytest.raises(spaces.FactorizationError):
            isometry.isometry_action(g, SolvCoords(space, x))
        external = isometry.classify_element(
            np.diag([2.0] + [1.0] * (space.N - 1)), space)
        assert external.kind == "external"
        with pytest.raises(ValueError, match="external"):
            isometry.isometry_action(external, SolvCoords(space, x))


class TestInputChecks:
    @pytest.mark.parametrize("space", [spaces.hyperbolic(2), *SPACES])
    def test_cartan_bound(self, space):
        angles = np.full(space.fiber_dim, 0.3)
        values = np.zeros((3, space.dim))
        values[1, 0] = spaces.CARTAN_BOUND
        isometry.fiber_rotate(space, values, angles)
        for w1 in (np.nextafter(spaces.CARTAN_BOUND, np.inf),
                   -2.0 * spaces.CARTAN_BOUND):
            values[1, 0] = w1
            with pytest.raises(spaces.CartanBoundError):
                isometry.fiber_rotate(space, values, angles)
            with pytest.raises(spaces.CartanBoundError):
                isometry.fiber_rotate(space, values + 1e-30j, angles)

    @pytest.mark.parametrize("space", [spaces.hyperbolic(2), *SPACES])
    def test_nan_cartan_refused(self, space):
        # NaN fails every comparison, so a range test that only looks for
        # values beyond the bound would let it through to the output
        values = np.zeros((3, space.dim))
        values[1, 0] = np.nan
        with pytest.raises(spaces.CartanBoundError,
                           match="not finite or beyond the bound"):
            isometry.fiber_rotate(space, values,
                                  np.full(space.fiber_dim, 0.3))

    def test_angle_count(self):
        space = spaces.hyperbolic(5)
        with pytest.raises(ValueError):
            isometry.fiber_rotate(space, np.zeros((2, 5)), np.zeros(2))

    def test_requires_r1(self):
        with pytest.raises(ValueError):
            isometry.fiber_rotate(spaces.SpaceId.sl(3), np.zeros(5), [])


def relative_error(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


class TestPullbackAgainstGivensLoop:
    """The fiber stage of the chain, ``_fiber_forward`` and its pullback
    ``_fiber_pullback`` (one rotation matrix, in the chart (T, Y2)),
    against one Givens rotation per angle in coordinates, near the origin
    and at |w1| in [20, 40].  The cotangents are compared in coordinates,
    g_Y1 = -T g_T, where every row has the same scale."""

    @PROPERTY
    @given(batches(), st.booleans())
    def test_matches_loop(self, case, far):
        space, values, angles = case
        if far:  # |w1| in [20, 40], of either sign
            values[:, 0] = (np.where(values[:, 0] < 0, -20.0, 20.0)
                            * (1.0 + np.abs(values[:, 0])))
        grad = np.cos(np.arange(values.size)).reshape(values.shape)
        out, g_values, g_angles = givens_loop_vjp(space, values, angles, grad)
        assert relative_error(isometry.fiber_rotate(space, values, angles),
                              out) <= 1e-13
        t = spaces._to_t_chart(values)
        out_t, tape = isometry._fiber_forward(space, t, angles)
        got_t, got_angles = isometry._fiber_pullback(
            tape, spaces._cotangent_to_t_chart(out_t, grad))
        got_values = spaces._cotangent_from_t_chart(t, got_t)
        assert relative_error(got_values, g_values) <= 1e-13
        assert relative_error(got_angles, g_angles) <= 1e-13


def at_bound(draw, rows, bound):
    """w1 within 1% of +-bound or exactly at it, one per row."""
    sign = draw(hnp.arrays(float, (rows,),
                           elements=st.sampled_from([-1.0, 1.0])))
    shrink = draw(hnp.arrays(float, (rows,), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 0.01))))
    return sign * bound * (1.0 - shrink)


@st.composite
def bound_cases(draw):
    """(space, values (B, d) with w1 at the bound, angles) on H^2..H^17."""
    space = spaces.hyperbolic(draw(st.integers(2, 17)))
    rows = draw(st.integers(1, 4))
    values = draw(hnp.arrays(float, (rows, space.dim),
                             elements=st.floats(-1.0, 1.0)))
    values[:, 0] = at_bound(draw, rows, spaces.CARTAN_BOUND)
    angles = draw(hnp.arrays(float, (space.fiber_dim,),
                             elements=st.floats(-np.pi, np.pi)))
    return space, values, angles


class TestCartanBoundary:
    """Stage inputs within 1% of +-CARTAN_BOUND and exactly at it are
    accepted, real and with a complex step; the next float beyond is
    refused, by ``fiber_rotate`` and by ``forward_batch`` (whose first
    stage reads the injection Q = I)."""

    @staticmethod
    def single_layer(space, angles):
        config = net.NetworkConfig(input_dim=space.dim,
                                   layers=(net.LayerSpec(space),),
                                   task="regression")
        params = net.init_params(config)
        params.Q[:] = np.eye(space.dim)
        params.lam[:] = angles
        return config, params

    @staticmethod
    def beyond(values):
        out = values.copy()
        out[:, 0] = np.where(values[:, 0] < 0, -1.0, 1.0) * np.nextafter(
            spaces.CARTAN_BOUND, np.inf)
        return out

    @PROPERTY
    @given(bound_cases())
    def test_fiber_rotate(self, case):
        space, values, angles = case
        step = np.zeros(values.shape)
        step[:, -1] = 1e-30
        for z in (values, values + 1j * step):
            assert np.all(np.isfinite(isometry.fiber_rotate(space, z, angles)))
            with pytest.raises(spaces.CartanBoundError):
                isometry.fiber_rotate(
                    space, self.beyond(z.real) + (z - z.real), angles)

    @PROPERTY
    @given(bound_cases())
    def test_forward_batch(self, case):
        space, values, angles = case
        config, params = self.single_layer(space, angles)
        step = np.zeros(values.shape)
        step[:, -1] = 1e-30
        for z in (values, values + 1j * step):
            assert np.all(np.isfinite(net.forward_batch(config, params, z)))
            with pytest.raises(spaces.CartanBoundError):
                net.forward_batch(config, params,
                                  self.beyond(z.real) + (z - z.real))
