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

Superoperators are exposed as real 4x4 generators G on the Pauli
coordinates (c0, c) = (Tr m, Tr[m sigma_vec]) of a 2x2 matrix
m = (c0 I + c . sigma_vec)/2.  A state has c0 = 1 and c = r, so its Bloch
equations read r_dot = drift @ r + constant with drift = G[1:, 1:] and
constant = G[1:, 0]; the first row of G vanishes because every generator
term handled here is trace free.  For A = a0 I + a . sigma_vec with complex
a, and [u]x the cross-product matrix ([u]x v = u x v), the closed
Pauli-algebra forms used below follow from
(u . sigma_vec)(v . sigma_vec) = (u . v) I + i (u x v) . sigma_vec:

damping         D[A]rho = A rho A+ - {A+A, rho}/2
    drift    = -2|a|^2 I_3 + a conj(a)^T + conj(a) a^T
               - i a0 [conj(a)]x + i conj(a0) [a]x
    constant = -2i conj(a) x a

coupling        -i[B, A rho + rho A+] for Hermitian B = b0 I + h . sigma_vec
    drift    = 4 Re(a0) [h]x - 4 [h]x [Im(a)]x
    constant = 4 h x Re(a)

The channel of G over a time t has the propagator P = expm(G t) on the
same coordinates, and its Choi matrix sum_ij E(|i><j|) kron |i><j| is
J = (1/2) sum_mn P[m, n] sigma_m kron sigma_n^T with sigma_0 = I.
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
    def lowering(cls) -> "AtomOperator":
        """sigma = |g><e| = (sigma_x - i sigma_y)/2."""
        return cls(0.0, 0.5, -0.5j, 0.0)

    @classmethod
    def raising(cls) -> "AtomOperator":
        return cls(0.0, 0.5, 0.5j, 0.0)

    @classmethod
    def identity(cls) -> "AtomOperator":
        return cls(1.0, 0.0, 0.0, 0.0)


def _cross_matrix(u) -> np.ndarray:
    """[u]x, the matrix of v -> u x v."""
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def _generator(drift, constant) -> np.ndarray:
    """4x4 generator with the given Bloch drift and constant and a zero
    (trace) row."""
    g = np.zeros((4, 4))
    g[1:, 1:] = drift
    g[1:, 0] = constant
    return g


def dissipator(a: AtomOperator) -> np.ndarray:
    """Generator of the damping superoperator D[A]rho = A rho A+
    - (A+A rho + rho A+A)/2.  Trace preserving."""
    av = a.vector
    ac = np.conj(av)
    a0 = complex(a.a0)
    drift = (
        np.outer(av, ac)
        + np.outer(ac, av)
        - 1j * a0 * _cross_matrix(ac)
        + 1j * np.conj(a0) * _cross_matrix(av)
    )
    drift -= 2.0 * np.real(ac @ av) * np.eye(3)
    return _generator(np.real(drift), np.real(-2j * (_cross_matrix(ac) @ av)))


def coupling_commutator(a: AtomOperator, b: AtomOperator) -> np.ndarray:
    """Generator of -i[B, A rho + rho A+] for Hermitian B.

    This is the feedback-coupling term of a homodyne-mediated feedback
    master equation: the record of jump operator A drives the Hamiltonian
    direction B.  Trace preserving.
    """
    if not b.is_hermitian:
        raise ParameterError("coupling direction B must be Hermitian")
    h = _cross_matrix(np.real(b.vector))
    drift = 4.0 * float(np.real(a.a0)) * h - 4.0 * h @ _cross_matrix(np.imag(a.vector))
    return _generator(drift, 4.0 * h @ np.real(a.vector))


# sigma_m kron sigma_n^T / 2 for sigma_0 = I, so J = sum_mn P[m, n] _CHOI_TERMS[m, n].
_PAULI_BASIS = (IDENTITY,) + PAULIS
_CHOI_TERMS = 0.5 * np.array([[np.kron(sm, sn.T) for sn in _PAULI_BASIS] for sm in _PAULI_BASIS])


def _choi_matrix(propagator) -> np.ndarray:
    """Hermitized Choi matrix of the channel with 4x4 Pauli-coordinate
    propagator P."""
    j = np.tensordot(propagator, _CHOI_TERMS, axes=2)
    return 0.5 * (j + j.conj().T)


def smallest_choi_eigenvalue(drift, constant, t: float) -> float:
    """Minimum Choi eigenvalue of exp(generator * t); nonnegative (within
    rounding) iff the map is completely positive."""
    p = expm(_generator(drift, constant) * float(t))
    return float(np.min(np.linalg.eigvalsh(_choi_matrix(p))))
