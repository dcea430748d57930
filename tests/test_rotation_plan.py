"""The rotation plan: a fiber stage's G and partial rows p are built once
per angle vector, keyed by its contents, dtype and shape, and handed out
read-only to the stage kernel and to the head turn."""

import numpy as np
import pytest

from cartannet import isometry, net, spaces

DIMS = (17, 9, 5)


def direct(angles):
    """G and p built from the angles, bypassing the plan."""
    return isometry._givens_product(np.cos(angles), np.sin(angles))


def network(seed=0):
    config = net.NetworkConfig(
        input_dim=4,
        layers=tuple(net.LayerSpec(spaces.hyperbolic(n)) for n in DIMS),
        task="multiclass", K=3)
    params = net.init_params(config, seed=seed)
    rng = np.random.default_rng(seed)
    params.lam[:] = rng.uniform(-np.pi, np.pi, params.lam.shape)
    for psi in params.psis:
        psi[:] = rng.uniform(-np.pi, np.pi, psi.shape)
    return config, params


class TestRotationPlan:
    def test_read_only(self):
        G, p, _ = isometry._rotation(np.array([0.3, -1.2, 2.0]))
        for array in (G, p):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_matches_the_direct_product(self):
        angles = np.random.default_rng(1).uniform(-np.pi, np.pi, 8)
        for got, want in zip(isometry._rotation(angles), direct(angles)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("complex_type", [np.complex128, np.complex64])
    def test_real_and_complex_bytes_never_share(self, complex_type):
        # a real vector and a complex one of the same bytes, hence of the
        # same byte length (and, for complex64, of the same shape), each
        # get their own rotation
        real = np.random.default_rng(2).uniform(-np.pi, np.pi, 4)
        z = real.view(complex_type)
        assert z.tobytes() == real.tobytes()
        for angles in (real, z, real):
            G, p, _ = isometry._rotation(angles)
            want = direct(angles)
            assert G.dtype == want[0].dtype
            assert np.array_equal(G, want[0]) and np.array_equal(p, want[1])

    def test_complex_step_stays_exact(self):
        # the plan at a + ih e_j is not the one at a: its imaginary part is
        # h dG/da_j, as the direct product gives it
        angles = np.random.default_rng(3).uniform(-np.pi, np.pi, 3)
        G = isometry._rotation(angles)[0]
        for j in range(3):
            stepped = angles.astype(complex)
            stepped[j] += 1e-30j
            got = isometry._rotation(stepped)[0]
            assert np.array_equal(got.real, G)
            assert np.any(got.imag)
            assert np.array_equal(got, direct(stepped)[0])

    def test_angles_rewritten_in_place_get_a_fresh_rotation(self):
        angles = np.array([0.1, 0.2, 0.3])
        first = isometry._rotation(angles)[0]
        angles[1] = -0.7  # as a training step writes its parameters
        second = isometry._rotation(angles)[0]
        assert not np.array_equal(first, second)
        assert np.array_equal(second, direct(angles)[0])

    def test_forward_after_an_in_place_step(self):
        config, params = network(seed=4)
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 4))
        net.forward_batch(config, params, X)
        params.psis[0] += 0.25
        got = net.forward_batch(config, params, X)
        isometry._rotation_plan.cache_clear()
        fresh = net.unflatten(config, net.flatten(config, params).vector)
        assert np.array_equal(got, net.forward_batch(config, fresh, X))

    def test_one_rotation_per_layer_over_repeated_batches(self, monkeypatch):
        config, params = network(seed=5)
        rng = np.random.default_rng(5)
        batches = [rng.uniform(-1.0, 1.0, (7, 4)) for _ in range(4)]
        isometry._rotation_plan.cache_clear()
        calls = []
        original = isometry._givens_product

        def counted(cos, sin):
            calls.append(len(cos))
            return original(cos, sin)

        monkeypatch.setattr(isometry, "_givens_product", counted)
        for X in batches + batches:
            net.forward_batch(config, params, X)
        assert sorted(calls) == sorted(
            spaces.hyperbolic(n).fiber_dim for n in DIMS)
