"""One separator margin |w|^2 - alpha beta: the training projection leaves
every separator with a margin the head kernel, ``Separator.admissible``
and ``train._margins`` all read as positive, at any finite |w|."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import classify, net, spaces, train

PROPERTY = settings(max_examples=60)


def config_for(n, K):
    return net.NetworkConfig(
        input_dim=4,
        layers=(net.LayerSpec(spaces.hyperbolic(5)),
                net.LayerSpec(spaces.hyperbolic(n))),
        task="binary" if K == 1 else "multiclass", K=None if K == 1 else K)


def head_of(config, vector):
    return net.unflatten(config, vector).head


def origin_row(config):
    """The origin of the last layer as a row of the chart (T, Y2)."""
    return np.r_[1.0, np.zeros(config.last_space.subpaint_dim)][None]


def test_large_norm_head_projects_to_what_the_head_accepts():
    # _margins reads this head's margin as 1.9e-6, above the slack, so it
    # is not moved, and the head kernel must read the same margin
    config = config_for(3, 1)
    params = net.init_params(config, seed=0)
    params.head["w"][0] = (67889.75983545351, 78576.49153648804)
    params.head["alpha"][0] = 66093.46955379711
    params.head["beta"][0] = 163152.04188096413
    vector = net.flatten(config, params).vector
    assert train._project(config, vector) == 0
    u, _ = classify._head(head_of(config, vector), origin_row(config))
    assert np.all(np.isfinite(u))


@st.composite
def wide_heads(draw):
    """K separators with |w| from 1e-3 to 1e150 and margins around the
    absolute slack or the slack 2^-40 |w|^2 relative to |w|^2."""
    n, K = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4))
    config = config_for(n, K)
    params = net.init_params(config, seed=0)
    s = config.last_space.subpaint_dim
    for k in range(K):
        u = draw(hnp.arrays(float, s, elements=st.floats(-1.0, 1.0)))
        if not np.max(np.abs(u)) >= 1e-3:
            u[0] = 1.0
        w = u / np.linalg.norm(u) * 10.0 ** draw(st.floats(-3.0, 150.0))
        w2 = float(w @ w)
        if draw(st.booleans()):
            margin = draw(st.floats(-4.0, 4.0)) * train._ADMISSIBLE_SLACK
        else:
            margin = draw(st.floats(-4.0, 4.0)) * train._RELATIVE_SLACK * w2
        alpha = (draw(st.sampled_from([-1.0, 1.0])) * np.sqrt(w2)
                 * 10.0 ** draw(st.floats(-3.0, 3.0)))
        params.head["w"][k] = w
        params.head["alpha"][k] = alpha
        params.head["beta"][k] = (w2 - margin) / alpha
    return config, net.flatten(config, params)


@PROPERTY
@given(wide_heads())
def test_projected_heads_are_admissible_to_every_reader(case):
    config, flat = case
    vector = flat.vector.copy()
    train._project(config, vector)
    head = head_of(config, vector)
    u, _ = classify._head(head, origin_row(config))
    assert np.all(np.isfinite(u))
    assert all(classify.Separator(a, b, w).admissible
               for a, b, w in zip(head["alpha"], head["beta"], head["w"]))
    assert np.all(train._margins(config, vector) > 0)


def test_a_nan_margin_is_refused_by_every_reader():
    # NaN fails "margin > 0", so the head refuses what
    # Separator.admissible refuses instead of scoring NaN
    point = np.zeros((1, 3))
    for alpha, beta, w in ((np.nan, 1.0, [1.0, 0.0]),
                           (0.0, 0.0, [np.nan, 1.0])):
        sep = classify.Separator(alpha, beta, np.array(w))
        assert not sep.admissible
        with pytest.raises(classify.DegenerateSeparatorError):
            classify.signed_distance(sep, point)


@pytest.mark.parametrize("alpha, beta, w", [
    (np.inf, 0.0, [1.0, 0.0]), (-np.inf, 0.0, [1.0, 0.0]),
    (0.0, np.inf, [1.0, 0.0]), (0.0, -np.inf, [1.0, 0.0]),
    (0.0, 0.0, [np.inf, 1.0])])
def test_an_infinite_parameter_is_refused_by_every_reader(alpha, beta, w):
    # alpha beta = inf * 0 is NaN with a RuntimeWarning, so a head with
    # an infinite parameter is refused where it is built
    point = np.zeros((1, 3))
    sep = classify.Separator(alpha, beta, np.array(w))
    with pytest.raises(classify.DegenerateSeparatorError):
        classify.signed_distance(sep, point)
    with pytest.raises(classify.DegenerateSeparatorError):
        classify.softmax_probs(classify.SeparatorBank((sep,)), point)
    with pytest.raises(classify.DegenerateSeparatorError):
        classify.multiclass_nll(point, [0], classify.SeparatorBank((sep, sep)))
