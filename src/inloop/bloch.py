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

The channel of G over a time t has the propagator P = exp(G t) on the
same coordinates, and its Choi matrix sum_ij E(|i><j|) kron |i><j| is
J = (1/2) sum_mn P[m, n] sigma_m kron sigma_n^T with sigma_0 = I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Purity tolerance for exact propagation.  Stochastic trajectories need
# none of their own: their Kraus step keeps every state in the Bloch ball
# up to rounding.
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

    def validate(self) -> "AtomState":
        if not np.all(np.isfinite(self.bloch)):
            raise ParameterError("Bloch components must be finite")
        if self.purity > 1.0 + EXACT_PURITY_TOL:
            raise ParameterError(
                f"Bloch vector of squared length {self.purity:.3e} lies outside "
                f"the unit ball (tolerance {EXACT_PURITY_TOL:.1e})"
            )
        return self


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


# Row 4 m + n is sigma_m kron sigma_n^T / 2 flattened (sigma_0 = I): J = P.ravel() @ rows.
_PAULI_BASIS = (IDENTITY,) + PAULIS
_CHOI_TERMS = 0.5 * np.array([np.kron(m, n.T).ravel() for m in _PAULI_BASIS for n in _PAULI_BASIS])

# 1/k! for k = 0 ... 15; row j multiplies the powers A^(4 j) ... A^(4 j + 3).
_TAYLOR = (1.0 / np.cumprod(np.maximum(np.arange(16.0), 1.0))).reshape(4, 4)


def _choi_matrix(propagator) -> np.ndarray:
    """Hermitized Choi matrix of the channel with 4x4 Pauli-coordinate
    propagator P."""
    j = (propagator.ravel() @ _CHOI_TERMS).reshape(4, 4)
    return 0.5 * (j + j.conj().T)


def _expm(a) -> np.ndarray:
    """exp(a) by scaling and squaring: the degree-15 Taylor polynomial of
    a / 2^s, whose 1-norm is at most 1/2 (remainder below 1e-18), summed in
    four blocks of four powers (Paterson-Stockmeyer) and squared s times."""
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1] + 1)
    a = a / 2.0**s
    a2 = a @ a
    a4 = a2 @ a2
    powers = np.array([np.eye(len(a)), a, a2, a2 @ a])
    b = (_TAYLOR @ powers.reshape(4, -1)).reshape(powers.shape)
    p = b[0] + a4 @ (b[1] + a4 @ (b[2] + a4 @ b[3]))
    for _ in range(s):
        p = p @ p
    return p


def smallest_choi_eigenvalue(drift, constant, t: float) -> float:
    """Minimum Choi eigenvalue of exp(generator * t); nonnegative (within
    rounding) iff the map is completely positive.  For t <= 1e3, `_expm`
    is within 2e-14 of `scipy.linalg.expm` and 8e-15 of a 40-digit exp.
    Raises ParameterError for a t that is negative or not finite, a drift
    that is not 3x3, a constant not of length 3, or a non-finite entry."""
    if not 0.0 <= float(t) < np.inf:
        raise ParameterError(f"channel time must be finite and nonnegative, got {t}")
    if np.shape(drift) != (3, 3) or np.shape(constant) != (3,):
        raise ParameterError(f"a generator needs a 3x3 drift and a length-3 constant, got "
                             f"shapes {np.shape(drift)} and {np.shape(constant)}")
    g = _generator(drift, constant)
    if not np.isfinite(g).all():
        raise ParameterError("generator drift and constant must be finite")
    p = _expm(g * float(t))
    return float(np.linalg.eigvalsh(_choi_matrix(p))[0])  # eigvalsh sorts ascending
