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
    _expm,
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
    operator_matrix,
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
    assert np.allclose(operator_matrix(sig), np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(
        operator_matrix(AtomOperator(0.0, 0.5, 0.5j, 0.0)), operator_matrix(sig).conj().T
    )
    assert np.allclose(0.5 * (PAULI_X - 1j * PAULI_Y), operator_matrix(sig))


def test_dissipator_examples():
    sig = AtomOperator.lowering()
    assert np.allclose(bloch_tangent(dissipator(sig), AtomState(0.0, 0.0, -1.0)), 0.0)
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
    assert np.allclose(measurement_superop(sig, AtomState(0.0, 0.0, -1.0)), 0.0)
    # nonlinearity check: pure +x state maps to (0, 0, -1), not 0
    assert np.allclose(measurement_superop(sig, AtomState(1, 0, 0)), [0, 0, -1], atol=1e-15)


def test_hamiltonian_flow_examples():
    c = 0.7
    h = AtomOperator(0, 0, c / 2.0, 0)
    s = AtomState(0.3, -0.2, 0.4)
    assert np.allclose(hamiltonian_flow(h, s), [c * s.z, 0.0, -c * s.x], atol=1e-15)
    assert np.allclose(hamiltonian_flow(AtomOperator(1.0, 0.0, 0.0, 0.0), s), 0.0)
    assert np.allclose(hamiltonian_flow(h, AtomState(0, 1, 0)), 0.0)


def test_hamiltonian_flow_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        hamiltonian_flow(AtomOperator.lowering(), AtomState(0.0, 0.0, -1.0))


def test_superops_match_matrix_arithmetic():
    # 1000 random (A, s) pairs, componentwise agreement to 1e-12
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = random_operator(rng)
        a_mat = operator_matrix(a)
        s = random_state(rng)
        rho = bloch_to_matrix(s)
        assert np.allclose(
            bloch_tangent(dissipator(a), s), tangent_of(matrix_dissipator(a_mat, rho)), atol=1e-12
        )
        assert np.allclose(
            measurement_superop(a, s),
            tangent_of(matrix_measurement(a_mat, rho)),
            atol=1e-12,
        )
        h = AtomOperator(*np.real(rng.standard_normal(4)))
        h_mat = operator_matrix(h)
        assert np.allclose(
            hamiltonian_flow(h, s),
            tangent_of(-1j * (h_mat @ rho - rho @ h_mat)),
            atol=1e-12,
        )
        b = AtomOperator(0.0, *np.real(rng.standard_normal(3)))
        b_mat = operator_matrix(b)
        m = a_mat @ rho + rho @ a_mat.conj().T
        assert np.allclose(
            bloch_tangent(coupling_commutator(a, b), s),
            tangent_of(-1j * (b_mat @ m - m @ b_mat)),
            atol=1e-12,
        )


def test_dissipator_and_flow_linear_in_state():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = random_operator(rng)
        s1, s2 = random_state(rng), random_state(rng)
        alpha = rng.uniform(0, 1)
        mix = AtomState(*(alpha * s1.bloch + (1 - alpha) * s2.bloch))
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
    sig_mat = operator_matrix(sig)
    for _ in range(200):
        s = AtomState(0.0, *(0.6 * rng.standard_normal(2)))
        assert abs(measurement_expectation(sig, s)) < 1e-14
        rho = bloch_to_matrix(s)
        linear = tangent_of(sig_mat @ rho + rho @ sig_mat.conj().T)
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
    ground = apply_channel(p, bloch_to_matrix(AtomState(0.0, 0.0, -1.0)))
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


def test_propagator_matches_scipy_expm():
    # scaling and squaring against scipy's Pade route over random feedback
    # and squeezed-bath generators; t = 1e3 takes up to 16 squarings.  Both
    # routes lie within about 1e-14 of a 40-digit exponential there.
    rng = np.random.default_rng(23)
    for _ in range(50):
        eta, eps = rng.uniform(0.1, 1.0, 2)
        gens = (
            build_generator(rng.uniform(-eta + 1e-3, 2.0), eta, eps),
            build_squeezed_generator(eta, np.exp(rng.uniform(-3.0, 3.0))),
        )
        for gen in gens:
            g = generator_matrix(gen.drift, gen.constant)
            for t in 10.0 ** np.arange(-6.0, 3.5, 0.5):
                assert np.max(np.abs(_expm(g * t) - expm(g * t))) < 2e-14
    assert np.array_equal(_expm(np.zeros((4, 4))), np.eye(4))
    # a pure rotation of (x, y) by the angle t: against the exact cosines
    # and sines, and against scipy up to t = 10, beyond which scipy's own
    # phase error grows to 8e-12 at t = 1e3
    rot = np.zeros((4, 4))
    rot[1, 2], rot[2, 1] = -1.0, 1.0
    for t in (1e-6, 1.0, np.pi, 10.0, 1e3):
        exact = np.eye(4)
        exact[1:3, 1:3] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        assert np.max(np.abs(_expm(rot * t) - exact)) < 1e-13
        if t <= 10.0:
            assert np.max(np.abs(_expm(rot * t) - expm(rot * t))) < 2e-14


@pytest.mark.parametrize("t", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_choi_check_rejects_times_that_are_not_finite_and_nonnegative(t):
    gen = build_generator(-0.76, 0.8, 0.95)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        smallest_choi_eigenvalue(gen.drift, gen.constant, t)


@pytest.mark.parametrize(
    "drift, constant, match",
    [
        (np.eye(2), np.zeros(3), r"3x3 drift and a length-3 constant, got shapes \(2, 2\) and \(3,\)"),
        (np.ones(3), np.zeros(3), r"got shapes \(3,\) and \(3,\)"),
        (-np.eye(3), np.zeros(2), r"got shapes \(3, 3\) and \(2,\)"),
        (-np.eye(3), 0.0, r"got shapes \(3, 3\) and \(\)"),
        (np.diag([np.nan, -1.0, -1.0]), np.zeros(3), "drift and constant must be finite"),
        (np.diag([np.inf, -1.0, -1.0]), np.zeros(3), "drift and constant must be finite"),
        (-np.eye(3), np.array([0.0, np.nan, 0.0]), "drift and constant must be finite"),
    ],
    ids=["2x2-drift", "vector-drift", "short-constant", "scalar-constant", "nan-drift",
         "inf-drift", "nan-constant"],
)
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_choi_check_rejects_malformed_and_non_finite_generators(drift, constant, match, t):
    # typed domain errors, also at t = 0, where inf * 0 would warn; a vector
    # drift would otherwise broadcast into three equal rows
    with pytest.raises(ParameterError, match=match):
        smallest_choi_eigenvalue(drift, constant, t)


def test_choi_check_at_zero_time_is_the_identity_channel():
    # the identity channel's Choi matrix has eigenvalues (2, 0, 0, 0)
    gen = build_generator(-0.76, 0.8, 0.95)
    assert smallest_choi_eigenvalue(gen.drift, gen.constant, 0.0) == 0.0
