"""Exact single-qubit algebra on the Bloch ball.

Conventions
-----------
Excited state |e> = (1, 0)^T, ground state |g> = (0, 1)^T, and the atomic
lowering operator

    sigma = |g><e| = (sigma_x - i sigma_y) / 2,

so a density matrix rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2 carries
the Bloch vector (x, y, z) = (Tr[rho sigma_x], Tr[rho sigma_y], Tr[rho sigma_z])
and the ground state sits at the south pole (0, 0, -1).  With this choice the
homodyne measurement of the X quadrature reads out sigma_x and the feedback
Hamiltonian couples through sigma_y.

Superoperators are exposed in Bloch-tangent form: a map from a state s to the
real 3-vector (dx, dy, dz) such that the matrix image is
(dx sigma_x + dy sigma_y + dz sigma_z) / 2 (every generator term handled here
is trace free).  For A = a0 I + a . sigma_vec with complex a, the closed
Pauli-algebra forms used below follow from
(u . sigma_vec)(v . sigma_vec) = (u . v) I + i (u x v) . sigma_vec:

damping         D[A]rho = A rho A+ - {A+A, rho}/2
    tangent = -2|a|^2 r + (conj(a) . r) a + (a . r) conj(a)
              + i a0 (r x conj(a)) - i conj(a0) (r x a) - 2i (conj(a) x a)

coupling        -i[B, A rho + rho A+] for Hermitian B = h . sigma_vec
    tangent = 2 h x V,  V = 2 Re(a) + 2 Re(a0) r - 2 Im(a) x r

Both tangents are affine in r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ParameterError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Purity tolerance for exact propagation; stochastic trajectories bound
# their purity excess by `trajectories.PURITY_ABORT_FACTOR` * dt instead,
# because Euler-Maruyama is order 1/2.
EXACT_PURITY_TOL = 1e-9


@dataclass(frozen=True)
class AtomState:
    """Two-level state as the Bloch vector (x, y, z).

    The corresponding matrix (I + x sigma_x + y sigma_y + z sigma_z)/2 is
    Hermitian with unit trace by construction; positivity is the purity
    bound x^2 + y^2 + z^2 <= 1.
    """

    x: float
    y: float
    z: float

    @property
    def bloch(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def purity(self) -> float:
        """Squared Bloch length x^2 + y^2 + z^2 (1 for pure states)."""
        return self.x * self.x + self.y * self.y + self.z * self.z

    def validate(self, tol: float = EXACT_PURITY_TOL) -> "AtomState":
        if not np.all(np.isfinite(self.bloch)):
            raise ParameterError("Bloch components must be finite")
        if self.purity > 1.0 + tol:
            raise ParameterError(
                f"Bloch vector of squared length {self.purity:.3e} lies outside "
                f"the unit ball (tolerance {tol:.1e})"
            )
        return self

    @classmethod
    def ground(cls) -> "AtomState":
        return cls(0.0, 0.0, -1.0)

    @classmethod
    def from_bloch(cls, r) -> "AtomState":
        r = np.asarray(r, dtype=float)
        return cls(float(r[0]), float(r[1]), float(r[2]))


@dataclass(frozen=True)
class AtomOperator:
    """Operator A = a0 I + ax sigma_x + ay sigma_y + az sigma_z with complex
    coefficients."""

    a0: complex
    ax: complex
    ay: complex
    az: complex

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.ax, self.ay, self.az], dtype=complex)

    @property
    def matrix(self) -> np.ndarray:
        return (
            self.a0 * IDENTITY
            + self.ax * PAULI_X
            + self.ay * PAULI_Y
            + self.az * PAULI_Z
        )

    @property
    def is_hermitian(self) -> bool:
        scale = max(1.0, abs(self.a0), abs(self.ax), abs(self.ay), abs(self.az))
        return (
            abs(self.a0.imag) <= 1e-12 * scale
            and abs(self.ax.imag) <= 1e-12 * scale
            and abs(self.ay.imag) <= 1e-12 * scale
            and abs(self.az.imag) <= 1e-12 * scale
        )

    @classmethod
    def from_matrix(cls, m) -> "AtomOperator":
        m = np.asarray(m, dtype=complex)
        a0 = 0.5 * np.trace(m)
        return cls(a0, *(0.5 * np.trace(m @ p) for p in PAULIS))

    @classmethod
    def lowering(cls) -> "AtomOperator":
        """sigma = |g><e| = (sigma_x - i sigma_y)/2."""
        return cls(0.0, 0.5, -0.5j, 0.0)

    @classmethod
    def raising(cls) -> "AtomOperator":
        return cls(0.0, 0.5, 0.5j, 0.0)

    @classmethod
    def identity(cls) -> "AtomOperator":
        return cls(1.0, 0.0, 0.0, 0.0)


def pauli_components(m) -> tuple[complex, np.ndarray]:
    """Decompose a 2x2 matrix as (c0, c) with m = (c0 I + c . sigma_vec)/2,
    i.e. c0 = Tr[m] and c_k = Tr[m sigma_k]."""
    m = np.asarray(m, dtype=complex)
    c0 = np.trace(m)
    c = np.array([np.trace(m @ p) for p in PAULIS])
    return c0, c


def dissipator(a: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of the damping superoperator D[A]rho = A rho A+
    - (A+A rho + rho A+A)/2.  Trace preserving and linear in the state."""
    av = a.vector
    ac = np.conj(av)
    r = s.bloch
    a0 = complex(a.a0)
    t = (
        -2.0 * float(np.real(ac @ av)) * r
        + (ac @ r) * av
        + (av @ r) * ac
        + 1j * a0 * np.cross(r, ac)
        - 1j * np.conj(a0) * np.cross(r, av)
        - 2j * np.cross(ac, av)
    )
    return np.real(t)


def coupling_commutator(a: AtomOperator, b: AtomOperator, s: AtomState) -> np.ndarray:
    """Bloch tangent of -i[B, A rho + rho A+] for Hermitian B.

    This is the feedback-coupling term of a homodyne-mediated feedback
    master equation: the record of jump operator A drives the Hamiltonian
    direction B.  Trace preserving and affine in the state.
    """
    if not b.is_hermitian:
        raise ParameterError("coupling direction B must be Hermitian")
    re_a = np.real(a.vector)
    im_a = np.imag(a.vector)
    r = s.bloch
    v = 2.0 * re_a + 2.0 * float(np.real(a.a0)) * r - 2.0 * np.cross(im_a, r)
    return 2.0 * np.cross(np.real(b.vector), v)


def affine_generator(tangent_fn) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (3x3 drift, constant) affine representation of a
    trace-preserving generator from its Bloch-tangent map, by probing the
    maximally mixed state and the three Pauli axes."""
    base = np.asarray(tangent_fn(AtomState(0.0, 0.0, 0.0)), dtype=float)
    cols = []
    for axis in np.eye(3):
        t = np.asarray(tangent_fn(AtomState.from_bloch(axis)), dtype=float)
        cols.append(t - base)
    return np.column_stack(cols), base


def affine_propagator(drift, constant, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exponential of an affine Bloch generator: returns (M, v) with
    r(t) = M r(0) + v, via the 4x4 embedding acting on (1, x, y, z)."""
    g = np.zeros((4, 4))
    g[1:, 1:] = np.asarray(drift, dtype=float)
    g[1:, 0] = np.asarray(constant, dtype=float)
    p = expm(g * float(t))
    return p[1:, 1:], p[1:, 0]


def apply_affine_channel(m, v, op) -> np.ndarray:
    """Extend the affine Bloch map r -> M r + v to a linear map on all 2x2
    matrices (the trace component multiplies the constant)."""
    c0, c = pauli_components(op)
    cp = np.asarray(m, dtype=complex) @ c + np.asarray(v, dtype=complex) * c0
    return 0.5 * (c0 * IDENTITY + cp[0] * PAULI_X + cp[1] * PAULI_Y + cp[2] * PAULI_Z)


def choi_matrix(m, v) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) kron |i><j| of the channel defined by
    the affine Bloch map (M, v)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            j += np.kron(apply_affine_channel(m, v, unit), unit)
    return 0.5 * (j + j.conj().T)


def smallest_choi_eigenvalue(drift, constant, t: float) -> float:
    """Minimum Choi eigenvalue of exp(generator * t); nonnegative (within
    rounding) iff the map is completely positive."""
    m, v = affine_propagator(drift, constant, t)
    return float(np.min(np.linalg.eigvalsh(choi_matrix(m, v))))
