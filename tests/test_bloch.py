"""Qubit algebra: Bloch superoperators against brute-force 2x2 matrix
arithmetic, linearity properties, and channel positivity."""

import numpy as np
import pytest
from scipy.linalg import expm

from inloop.bloch import (
    AtomOperator,
    AtomState,
    PAULIS,
    PAULI_X,
    PAULI_Y,
    _choi_matrix,
    coupling_commutator,
    dissipator,
    smallest_choi_eigenvalue,
)
from inloop.errors import ParameterError
from inloop.feedback import build_generator
from inloop.squeezed_bath import build_squeezed_generator
from oracles import (
    apply_channel,
    bloch_tangent,
    bloch_to_matrix,
    generator_matrix,
    hamiltonian_flow,
    measurement_expectation,
    measurement_superop,
    reference_choi,
    state_from_matrix,
)


def random_state(rng, pure=False):
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    if not pure:
        r *= rng.uniform(0.0, 1.0)
    return AtomState(*r)


def random_operator(rng):
    c = rng.standard_normal((4, 2)) @ np.array([1.0, 1.0j])
    return AtomOperator(*c)


def tangent_of(mat):
    return np.array([np.real(np.trace(mat @ p)) for p in PAULIS])


def matrix_dissipator(a_mat, rho):
    ad = a_mat.conj().T
    return a_mat @ rho @ ad - 0.5 * (ad @ a_mat @ rho + rho @ ad @ a_mat)


def matrix_measurement(a_mat, rho):
    m = a_mat @ rho + rho @ a_mat.conj().T
    return m - np.trace(m).real * rho


def test_bloch_matrix_poles_and_equator():
    assert np.allclose(bloch_to_matrix(AtomState(0, 0, -1)), np.diag([0.0, 1.0]))
    assert np.allclose(bloch_to_matrix(AtomState(0, 0, 1)), np.diag([1.0, 0.0]))
    assert np.allclose(bloch_to_matrix(AtomState(1, 0, 0)), 0.5 * np.ones((2, 2)))


def test_bloch_matrix_trace_hermiticity_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = random_state(rng)
        rho = bloch_to_matrix(s)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12 and evals.max() < 1.0 + 1e-12
        back = state_from_matrix(rho)
        assert np.allclose(back.bloch, s.bloch, atol=1e-14)


def test_lowering_operator_convention():
    sig = AtomOperator.lowering()
    assert np.allclose(sig.matrix, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(
        AtomOperator.raising().matrix, sig.matrix.conj().T
    )
    assert np.allclose(0.5 * (PAULI_X - 1j * PAULI_Y), sig.matrix)


def test_dissipator_examples():
    sig = AtomOperator.lowering()
    assert np.allclose(bloch_tangent(dissipator(sig), AtomState.ground()), 0.0)
    s = AtomState(0.3, -0.2, 0.4)
    assert np.allclose(bloch_tangent(dissipator(sig), s), [-0.15, 0.1, -1.4], atol=1e-15)
    half_sy = AtomOperator(0, 0, 0.5, 0)
    assert np.allclose(bloch_tangent(dissipator(half_sy), s), [-0.15, 0.0, -0.2], atol=1e-15)


def test_measurement_examples():
    sig = AtomOperator.lowering()
    s = AtomState(0.3, -0.2, 0.4)
    x, y, z = s.x, s.y, s.z
    assert np.allclose(
        measurement_superop(sig, s), [1 + z - x * x, -x * y, -x * (1 + z)], atol=1e-15
    )
    assert np.allclose(measurement_superop(sig, AtomState.ground()), 0.0)
    # nonlinearity check: pure +x state maps to (0, 0, -1), not 0
    assert np.allclose(measurement_superop(sig, AtomState(1, 0, 0)), [0, 0, -1], atol=1e-15)


def test_hamiltonian_flow_examples():
    c = 0.7
    h = AtomOperator(0, 0, c / 2.0, 0)
    s = AtomState(0.3, -0.2, 0.4)
    assert np.allclose(hamiltonian_flow(h, s), [c * s.z, 0.0, -c * s.x], atol=1e-15)
    assert np.allclose(hamiltonian_flow(AtomOperator.identity(), s), 0.0)
    assert np.allclose(hamiltonian_flow(h, AtomState(0, 1, 0)), 0.0)


def test_hamiltonian_flow_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        hamiltonian_flow(AtomOperator.lowering(), AtomState.ground())


def test_superops_match_matrix_arithmetic():
    # 1000 random (A, s) pairs, componentwise agreement to 1e-12
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = random_operator(rng)
        s = random_state(rng)
        rho = bloch_to_matrix(s)
        assert np.allclose(
            bloch_tangent(dissipator(a), s), tangent_of(matrix_dissipator(a.matrix, rho)), atol=1e-12
        )
        assert np.allclose(
            measurement_superop(a, s),
            tangent_of(matrix_measurement(a.matrix, rho)),
            atol=1e-12,
        )
        h = AtomOperator(*np.real(rng.standard_normal(4)))
        assert np.allclose(
            hamiltonian_flow(h, s),
            tangent_of(-1j * (h.matrix @ rho - rho @ h.matrix)),
            atol=1e-12,
        )
        b = AtomOperator(0.0, *np.real(rng.standard_normal(3)))
        m = a.matrix @ rho + rho @ a.matrix.conj().T
        assert np.allclose(
            bloch_tangent(coupling_commutator(a, b), s),
            tangent_of(-1j * (b.matrix @ m - m @ b.matrix)),
            atol=1e-12,
        )


def test_dissipator_and_flow_linear_in_state():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = random_operator(rng)
        s1, s2 = random_state(rng), random_state(rng)
        alpha = rng.uniform(0, 1)
        mix = AtomState.from_bloch(alpha * s1.bloch + (1 - alpha) * s2.bloch)
        t_mix = alpha * np.asarray(bloch_tangent(dissipator(a), s1)) + (1 - alpha) * np.asarray(
            bloch_tangent(dissipator(a), s2)
        )
        assert np.allclose(bloch_tangent(dissipator(a), mix), t_mix, atol=1e-12)
        h = AtomOperator(*np.real(rng.standard_normal(4)))
        f_mix = alpha * np.asarray(hamiltonian_flow(h, s1)) + (1 - alpha) * np.asarray(
            hamiltonian_flow(h, s2)
        )
        assert np.allclose(hamiltonian_flow(h, mix), f_mix, atol=1e-12)


def test_measurement_reduces_to_linear_part_at_zero_expectation():
    # for A = sigma the record mean is <sigma_x>; states with x = 0 make the
    # conditioning linear
    rng = np.random.default_rng(11)
    sig = AtomOperator.lowering()
    for _ in range(200):
        s = AtomState(0.0, *(0.6 * rng.standard_normal(2)))
        assert abs(measurement_expectation(sig, s)) < 1e-14
        rho = bloch_to_matrix(s)
        linear = tangent_of(sig.matrix @ rho + rho @ sig.matrix.conj().T)
        assert np.allclose(measurement_superop(sig, s), linear, atol=1e-13)


def test_flow_tangent_orthogonal_to_state():
    rng = np.random.default_rng(13)
    for _ in range(200):
        h = AtomOperator(0.0, *np.real(rng.standard_normal(3)))
        s = random_state(rng)
        assert abs(np.dot(hamiltonian_flow(h, s), s.bloch)) < 1e-12


def test_state_validation():
    AtomState(0.6, 0.0, 0.7).validate()
    with pytest.raises(ParameterError):
        AtomState(1.0, 1.0, 1.0).validate()
    with pytest.raises(ParameterError):
        AtomState(np.inf, 0.0, 0.0).validate()


def test_affine_generator_of_damping_and_channel():
    sig = AtomOperator.lowering()
    g = dissipator(sig)
    drift, const = g[1:, 1:], g[1:, 0]
    assert np.allclose(drift, np.diag([-0.5, -0.5, -1.0]), atol=1e-14)
    assert np.allclose(const, [0, 0, -1.0], atol=1e-14)
    # amplitude damping for time t: completely positive, trace preserving
    p = expm(g * 0.3)
    ground = apply_channel(p, bloch_to_matrix(AtomState.ground()))
    assert abs(np.trace(ground) - 1.0) < 1e-12
    assert smallest_choi_eigenvalue(drift, const, 0.3) > -1e-12
    j = reference_choi(drift, const, 0.3)
    assert np.max(np.abs(j - j.conj().T)) < 1e-14


def test_choi_matches_matrix_unit_oracle():
    # closed-form J = (1/2) sum_mn P[m, n] sigma_m kron sigma_n^T against the
    # matrix-unit definition, over random feedback and squeezed-bath
    # generators and times 1e-3 to 1e-1
    rng = np.random.default_rng(19)
    for _ in range(100):
        eta, eps = rng.uniform(0.1, 1.0, 2)
        gens = (
            build_generator(rng.uniform(-eta + 1e-3, 2.0), eta, eps),
            build_squeezed_generator(eta, np.exp(rng.uniform(-3.0, 3.0))),
        )
        for gen in gens:
            t = 10.0 ** rng.uniform(-3.0, -1.0)
            ref = reference_choi(gen.drift, gen.constant, t)
            closed = _choi_matrix(expm(generator_matrix(gen.drift, gen.constant) * t))
            assert np.max(np.abs(closed - ref)) < 1e-14
            smallest = np.min(np.linalg.eigvalsh(0.5 * (ref + ref.conj().T)))
            assert abs(smallest_choi_eigenvalue(gen.drift, gen.constant, t) - smallest) < 1e-14
