"""Batched Maurer-Cartan constraint kernels: residual and Jacobian stacks
against complex-step derivatives and one-W stacks, the batched min-norm
Gauss-Newton step against ``np.linalg.lstsq``, and the kernels' gathers
through cached index tables against the fancy indexing of
``tests/oracles.py``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartannet import homo
from oracles import (reference_jacobian_stack, reference_residual_stack,
                     reference_steps)

SYSTEMS = {
    name: homo.build_constraints(homo.mc_for_name(src), homo.mc_for_name(tgt))
    for name, (src, tgt) in {
        "r1(1)->borel_sl(4)": ("r1(1)", "borel_sl(4)"),
        "borel_sl(4)->r1(1)": ("borel_sl(4)", "r1(1)"),
        "r1(2)->r1(4)": ("r1(2)", "r1(4)"),
        "borel_sl(3)->borel_sl(3)": ("borel_sl(3)", "borel_sl(3)"),
    }.items()
}
PROPERTY = settings(max_examples=20)
H = 1e-30  # complex step


@st.composite
def stacks(draw):
    """(system, W) with W a stack (S, d2, d1), S in {1, 5}, |W| <= 2."""
    system = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    size = draw(st.sampled_from([1, 5]))
    W = draw(hnp.arrays(float, (size, *system.shape),
                        elements=st.floats(-2.0, 2.0)))
    return system, W


def reference_residual(system, W):
    """R^i_bc = W^i_a g^a_bc - f^i_jk W^j_b W^k_c for b < c, by einsum."""
    R = (np.einsum("ia,abc->ibc", W, system.source.f)
         - np.einsum("ijk,jb,kc->ibc", system.target.f, W, W))
    iu = np.triu_indices(system.source.d, k=1)
    return R[:, iu[0], iu[1]].reshape(-1)


def complex_step_jacobian(system, W):
    """Columns Im(residual_stack(W + i h e_k)) / h; exact for the quadratic
    residual, whose second-order term is real."""
    flat = W.reshape(-1).astype(complex)
    cols = []
    for k in range(flat.size):
        step = flat.copy()
        step[k] += 1j * H
        cols.append(system.residual_stack(step.reshape(1, *W.shape))[0].imag
                    / H)
    return np.stack(cols, axis=1)


class TestResidualStack:
    @PROPERTY
    @given(stacks())
    def test_matches_einsum_reference(self, case):
        system, W = case
        got = system.residual_stack(W)
        assert got.shape == (len(W), system.target.d * system.source.d
                             * (system.source.d - 1) // 2)
        for row, w in zip(got, W):
            assert np.max(np.abs(row - reference_residual(system, w))) <= 1e-13

    @PROPERTY
    @given(stacks())
    def test_rows_equal_single_calls(self, case):
        system, W = case
        got = system.residual_stack(W)
        for row, w in zip(got, W):
            assert np.max(np.abs(row - system.residual_stack(w[None])[0])) <= 1e-15
            assert homo.residual(w, system) == np.linalg.norm(
                system.residual_stack(w[None])[0])

    def test_tensor_is_antisymmetric_extension(self):
        system = SYSTEMS["r1(1)->borel_sl(4)"]
        W = np.random.default_rng(0).uniform(-1, 1, system.shape)
        R = system._tensor_stack(W[None])[0]
        assert np.max(np.abs(R + R.transpose(0, 2, 1))) <= 1e-15


class TestJacobianStack:
    @PROPERTY
    @given(stacks())
    def test_matches_complex_step(self, case):
        system, W = case
        J = system.jacobian_stack(W)
        m = system.residual_stack(W).shape[1]
        assert J.shape == (len(W), m, W[0].size)
        for Js, w in zip(J, W):
            assert np.max(np.abs(Js - complex_step_jacobian(system, w))) <= 1e-13

    @PROPERTY
    @given(stacks())
    def test_rows_equal_single_calls(self, case):
        system, W = case
        J = system.jacobian_stack(W)
        for Js, w in zip(J, W):
            assert np.max(np.abs(Js - system.jacobian_stack(w[None])[0])) <= 1e-15


class TestMinNormStep:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 30),
           st.integers(1, 12))
    def test_matches_lstsq(self, seed, groups, m, k):
        """Exact rank deficiency from zero rows and zero columns, and one
        column scaled down to 1e-4 that must still count; the SVD sees only
        the rows that are nonzero for some start."""
        rng = np.random.default_rng(seed)
        J = rng.normal(size=(groups, m, k))
        J[:, :, rng.integers(k)] *= 1e-4
        J[:, rng.random(m) < 0.3] = 0.0
        J[:, :, rng.random(k) < 0.3] = 0.0
        r = rng.normal(size=(groups, m))
        live = np.flatnonzero(np.any(J != 0, axis=(0, 2)))
        got = homo._min_norm_steps(J[:, live], r[:, live], m)
        for dx, Jg, rg in zip(got, J, r):
            want, *_ = np.linalg.lstsq(Jg, -rg, rcond=None)
            assert np.linalg.norm(dx - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def reference_stack(system, size):
    """(S, d2, d1) draws in [-2, 2] with every third entry 0, so that some
    Jacobian rows vanish."""
    d2, d1 = system.shape
    W = np.random.default_rng(size).uniform(-2.0, 2.0, (size, d2 * d1))
    W[:, ::3] = 0.0
    return W.reshape(size, d2, d1)


class TestAgainstReferences:
    """The ``take`` gathers and flat index tables give the bits of the
    fancy indexing they replaced, at S = 0 too."""

    @pytest.mark.parametrize("size", [0, 1, 5])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_residual_and_jacobian_stacks(self, name, size):
        system = SYSTEMS[name]
        W = reference_stack(system, size)
        for stack in (W, W + 1e-30j * np.cos(W)):
            got = system.residual_stack(stack)
            want = reference_residual_stack(system, stack)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            got = system.jacobian_stack(stack)
            want = reference_jacobian_stack(system, stack)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [0, 1, 5])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_steps(self, name, size):
        """Masks: all free, none free, every other entry free and one entry
        free, which leaves Jacobian rows zero throughout its columns; the
        last mask has no rows."""
        system = SYSTEMS[name]
        W = reference_stack(system, size)
        X = W.reshape(size, W.shape[1] * W.shape[2])
        R = system.residual_stack(W)
        masks = np.zeros((5, W.shape[1] * W.shape[2]), dtype=bool)
        masks[0] = True
        masks[2, ::2] = True
        masks[3, 1] = True
        masks[4] = True
        group = np.arange(size) % 4
        if size:
            J = system.jacobian_stack(W[group == 3])
            assert not J[:, :, 1].any(axis=0).all()
        got = homo._steps(system, X, R, masks, group)
        want = reference_steps(system, X, R, masks, group)
        assert got.shape == want.shape == X.shape
        assert got.tobytes() == want.tobytes()
