"""Scalar reference implementations that the tests check the library against.

The vectorized trajectory kernel in `inloop.trajectories` is checked against
the one-state stepper `step_conditioned` with its drive `feedback_drive` and
current `mean_current`; the Bloch-tangent superoperators below are checked
against brute-force 2x2 matrix arithmetic, and `reference_choi` builds the
Choi matrix of a generator's channel from its matrix-unit definition.  Conventions are those of
`inloop.bloch`.  With r the Bloch vector of rho, A = a0 I + a . sigma_vec
with complex a, and Hermitian H = h0 I + h . sigma_vec:

conditioning    H[A]rho = A rho + rho A+ - Tr[A rho + rho A+] rho
    tangent = 2 Re(a) - 2 Im(a) x r - (2 Re(a) . r) r
    (the scalar part a0 cancels; Tr[A rho + rho A+] = 2 Re(a0) + 2 Re(a) . r)

unitary flow    -i[H, rho]
    tangent = 2 h x r

The conditioning tangent is quadratic in the state through its expectation
subtraction; the flow is linear.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from inloop.bloch import (
    EXACT_PURITY_TOL,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    AtomOperator,
    AtomState,
    dissipator,
)
from inloop.errors import ParameterError, StepSizeError
from inloop.loop import LoopFilter
from inloop.trajectories import PURITY_ABORT_CEILING, PURITY_ABORT_FACTOR


def bloch_tangent(g, s: AtomState) -> np.ndarray:
    """Bloch tangent (G @ (1, r))[1:] of the 4x4 generator G at state s."""
    return (np.asarray(g) @ np.concatenate(([1.0], s.bloch)))[1:]


def generator_matrix(drift, constant) -> np.ndarray:
    """4x4 generator G = [[0, 0], [constant, drift]] on (1, x, y, z)."""
    gen = np.zeros((4, 4))
    gen[1:, 0] = constant
    gen[1:, 1:] = drift
    return gen


def pauli_coordinates(m) -> np.ndarray:
    """(Tr m, Tr m sigma_x, Tr m sigma_y, Tr m sigma_z) of a 2x2 matrix."""
    return np.array([np.trace(m)] + [np.trace(m @ p) for p in PAULIS])


def apply_channel(propagator, m) -> np.ndarray:
    """Image of the 2x2 matrix m = (c0 I + c . sigma_vec)/2 under the channel
    whose 4x4 propagator acts on its Pauli coordinates (c0, c)."""
    c = propagator @ pauli_coordinates(m)
    return 0.5 * (c[0] * IDENTITY + c[1] * PAULI_X + c[2] * PAULI_Y + c[3] * PAULI_Z)


def reference_choi(drift, constant, t: float) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) kron |i><j| of E = expm(G t), applying
    E to each matrix unit |i><j| by 2x2 arithmetic (not hermitized)."""
    p = expm(generator_matrix(drift, constant) * t)
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            j += np.kron(apply_channel(p, unit), unit)
    return j


def bloch_to_matrix(s: AtomState) -> np.ndarray:
    """Density matrix (I + x sigma_x + y sigma_y + z sigma_z)/2."""
    return 0.5 * (IDENTITY + s.x * PAULI_X + s.y * PAULI_Y + s.z * PAULI_Z)


def state_from_matrix(rho, tol: float = EXACT_PURITY_TOL) -> AtomState:
    """Bloch vector of a (Hermitian, unit-trace) 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ParameterError("density matrix must have unit trace")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ParameterError("density matrix must be Hermitian")
    r = [float(np.real(np.trace(rho @ p))) for p in PAULIS]
    return AtomState(*r).validate(tol)


def measurement_expectation(a: AtomOperator, s: AtomState) -> float:
    """Tr[A rho + rho A+], the mean of the homodyne record for jump
    operator A (equals <sigma_x> for A = sigma)."""
    re_a = np.real(a.vector)
    return float(2.0 * np.real(a.a0) + 2.0 * (re_a @ s.bloch))


def measurement_superop(a: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of the homodyne conditioning superoperator
    H[A]rho = A rho + rho A+ - Tr[A rho + rho A+] rho.

    Trace free but nonlinear in the state through the expectation
    subtraction.
    """
    re_a = np.real(a.vector)
    im_a = np.imag(a.vector)
    r = s.bloch
    return 2.0 * re_a - 2.0 * np.cross(im_a, r) - (2.0 * (re_a @ r)) * r


def hamiltonian_flow(h: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of -i[H, rho] for Hermitian H: a rotation of the Bloch
    vector about the Pauli vector of H (length preserving, tangent
    orthogonal to the state for traceless H)."""
    if not h.is_hermitian:
        raise ParameterError("Hamiltonian must be Hermitian")
    hv = np.real(h.vector)
    return 2.0 * np.cross(hv, s.bloch)


def mean_current(s: AtomState, phi: float, eta: float, eps: float) -> float:
    """Expected homodyne current sqrt(eta eps) <sigma_x> + sqrt(eps) Phi."""
    return np.sqrt(eta * eps) * s.x + np.sqrt(eps) * phi


def feedback_drive(history, filt: LoopFilter, g: float, eps: float, dt: float) -> float:
    """Feedback drive Phi = (g/sqrt(eps)) sum_j w_j I_{k-j} from the most
    recent current samples.

    `history` holds current samples in time order (oldest first, newest =
    the strictly previous step).  It must cover at least the nominal filter
    delay tau; samples older than the available history count as zero
    (filters with truncated infinite tails draw on up to their full
    buffered support).  Callers hold Phi at 0 during the initial warm-up.
    """
    weights = filt.discretize(dt)
    hist = np.asarray(history, dtype=float)
    needed = int(round(filt.tau / dt))
    if hist.size < needed:
        raise ParameterError(
            f"insufficient history: filter needs {needed} past samples "
            f"(delay {filt.tau:.3g}), got {hist.size}"
        )
    take = min(weights.size, hist.size)
    window = hist[-take:]
    return float(g / np.sqrt(eps) * (weights[:take] @ window[::-1]))


def step_conditioned(
    s: AtomState,
    phi: float,
    dw: float,
    dt: float,
    eta: float,
    eps: float,
    max_excess: float | None = None,
) -> AtomState:
    """Single step of the conditioned master equation: Euler-Maruyama for
    damping plus homodyne conditioning, composed with the exact feedback
    rotation exp(-i H_fb dt) for H_fb = sqrt(eta) Phi sigma_y / 2 (see the
    `inloop.trajectories` docstring for why the rotation is not
    linearized), then the post-step projection."""
    sigma = AtomOperator.lowering()
    r = (
        s.bloch
        + dt * bloch_tangent(dissipator(sigma), s)
        + np.sqrt(eta * eps) * dw * measurement_superop(sigma, s)
    )
    theta = np.sqrt(eta) * phi * dt
    if theta != 0.0:
        c, sn = np.cos(theta), np.sin(theta)
        r = np.array([r[0] * c + r[2] * sn, r[1], -r[0] * sn + r[2] * c])
    cap = min(PURITY_ABORT_FACTOR * dt, PURITY_ABORT_CEILING) if max_excess is None else max_excess
    n2 = float(r @ r)
    if n2 > 1.0 + cap:
        raise StepSizeError(
            f"step size too large: purity overshoot {n2 - 1.0:.3e} exceeds "
            f"budget {cap:.3e}"
        )
    if n2 > 1.0:
        r /= np.sqrt(n2)
    return AtomState.from_bloch(r)


def trapezoid_power_spectrum(drift, constant, eta, grid, tau_max, dtau) -> np.ndarray:
    """Fluorescence spectrum (1 - eta)/(2 pi) Re int_0^tau_max exp(i w tau)
    c(tau) dtau by `np.trapezoid` on the lags 0, dtau, ..., tau_max, with no
    tail beyond tau_max.

    c(tau) = Tr[sigma+ m(tau)] for m(0) = sigma rho_ss, built by 2x2 matrix
    arithmetic.  The Pauli components (Tr m, Tr m sigma_k) of m are stepped
    by the exact one-step map expm(G dtau) of the affine Bloch generator
    G = [[0, 0], [constant, drift]], so no eigendecomposition is involved.
    """
    r_ss = np.linalg.solve(drift, -constant)
    sigma = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    m0 = sigma @ bloch_to_matrix(AtomState.from_bloch(r_ss))
    step = expm(generator_matrix(drift, constant) * dtau)
    n = int(round(tau_max / dtau))
    comps = np.empty((n + 1, 4), dtype=complex)
    comps[0] = pauli_coordinates(m0)
    for j in range(n):
        comps[j + 1] = step @ comps[j]
    # m = (c0 I + c . sigma_vec)/2, so Tr[sigma+ m] = comps . readout
    sigma_plus = sigma.conj().T
    readout = 0.5 * np.array([np.trace(sigma_plus)] + [np.trace(sigma_plus @ p) for p in PAULIS])
    c = comps @ readout
    taus = np.arange(n + 1) * dtau
    transform = [np.trapezoid(c * np.exp(1j * w * taus), dx=dtau) for w in grid]
    return (1.0 - eta) / (2.0 * np.pi) * np.real(transform)
