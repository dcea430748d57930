"""The stage matrix of the rotation plan: a layer's fiber rotations are one
matrix A on the lift Phi = (T, Y2, up), up = (1 + |Y2|^2 / 4) / T, so A
maps the lift of a fiber stage's input rows onto the lift of its output
rows, and the turned head is C A itself."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import isometry, spaces

PROPERTY = settings(max_examples=60)

#: where the stage's input w1 is drawn: near the origin, at |w1| in
#: [20, 40], and within 1% of +-CARTAN_BOUND
REGIONS = {
    "origin": (0.0, 1.0),
    "far": (20.0, 40.0),
    "bound": (0.99 * spaces.CARTAN_BOUND, spaces.CARTAN_BOUND),
}


@st.composite
def stage_cases(draw):
    """(space, rows (B, d) of the chart (T, Y2), angles) on H^2..H^17,
    with w1 of either sign in one of :data:`REGIONS`."""
    space = spaces.hyperbolic(draw(st.integers(2, 17)))
    rows = draw(st.integers(1, 5))
    low, high = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    values = draw(hnp.arrays(float, (rows, space.dim),
                             elements=st.floats(-1.0, 1.0)))
    size = draw(hnp.arrays(float, (rows,), elements=st.floats(low, high)))
    sign = draw(hnp.arrays(float, (rows,),
                           elements=st.sampled_from([-1.0, 1.0])))
    values[:, 0] = sign * size
    angles = draw(hnp.arrays(float, (space.fiber_dim,),
                             elements=st.floats(-np.pi, np.pi)))
    return space, spaces._to_t_chart(values), angles


def lift(t):
    """The lift Phi (d+1, B) of rows t (B, d) of the chart (T, Y2)."""
    return spaces._lift(spaces._lift_stack(t))


def column_error(got, want):
    """The largest error of a column of ``got`` relative to the largest
    entry of that column of ``want``."""
    return np.max(np.max(np.abs(got - want), axis=0)
                  / np.max(np.abs(want), axis=0))


def on_hyperboloid(phi):
    """up T = 1 + |Y2|^2 / 4 of each column of a lift, relative."""
    rhs = 1.0 + 0.25 * np.sum(phi[1:-1] ** 2, axis=0)
    return np.max(np.abs(phi[-1] * phi[0] - rhs) / rhs)


class TestStageMatrix:
    @PROPERTY
    @given(stage_cases())
    def test_maps_the_lift_of_inputs_onto_that_of_outputs(self, case):
        space, t, angles = case
        A = isometry._rotation(angles)[2]
        assert A.shape == (space.dim + 1, space.dim + 1)
        phi_in = lift(t)
        phi_out = lift(isometry._fiber_forward(space, t, angles)[0])
        assert on_hyperboloid(phi_in) <= 1e-13
        assert on_hyperboloid(phi_out) <= 1e-13
        assert column_error(A @ phi_in, phi_out) <= 1e-13

    @PROPERTY
    @given(stage_cases(), st.integers(1, 4))
    def test_turned_head_is_the_covectors_times_a(self, case, K):
        space, _, angles = case
        coefs = np.cos(np.arange(K * (space.dim + 1))).reshape(K, -1)
        turned = isometry._turn_head(coefs, angles)[0]
        want = coefs @ isometry._rotation(angles)[2]
        assert np.array_equal(turned, want)
