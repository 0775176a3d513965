"""Markovian feedback master equation for the in-loop atom.

In the broad-band (instantaneous feedback) limit, driving a resonant
two-level atom with the in-loop field of a homodyne feedback loop of
round-loop gain g, detector efficiency eps and mode matching eta reduces to
the master equation

    rho_dot = D[sigma] rho
              - i lam [sigma_y / 2, sigma rho + rho sigma+]
              + (lam^2 / (eta eps)) D[sigma_y / 2] rho,

with feedback strength lam = g eta / (1 - g) in (-eta, inf).  The Bloch
equations decouple:

    x_dot = -gamma_x x,   y_dot = -gamma_y y,   z_dot = -gamma_z z - C,

    gamma_x = [1 + 2 lam + lam^2/(eta eps)] / 2
    gamma_y = 1/2                      (the unmonitored quadrature)
    gamma_z = gamma_x + gamma_y
    C       = 1 + lam

Negative feedback (lam < 0) narrows the x-quadrature decay below its
natural value 1/2, down to (1 - eta eps)/2 at lam = -eta eps.  Expressed
through the in-loop squeezing S of the driving field, the narrowed rate is
gamma_x = [(1 - eta) + eta S] / 2, the same dependence as for a free
squeezed bath (see `inloop.squeezed_bath`).

Both models share the model layer defined here: a `RateSet` (with its
steady state), an `AffineGenerator` assembled from the superoperators, and
`propagate`, the exact solution of the decoupled Bloch equations.

Time is measured in units of the longitudinal atomic lifetime (the
spontaneous decay rate is 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import AtomOperator, AtomState, coupling_commutator, dissipator
from .errors import ParameterError


@dataclass(frozen=True)
class RateSet:
    """Decay rates and constant drive of decoupled Bloch equations
    x_dot = -gamma_x x, y_dot = -gamma_y y, z_dot = -gamma_z z - C."""

    gamma_x: float
    gamma_y: float
    gamma_z: float
    C: float

    def as_dict(self) -> dict:
        return {
            "gamma_x": self.gamma_x,
            "gamma_y": self.gamma_y,
            "gamma_z": self.gamma_z,
            "C": self.C,
        }

    def steady_state(self) -> AtomState:
        """Stationary state (0, 0, -C/gamma_z) of the Bloch equations."""
        if self.gamma_z <= 0.0:
            raise ParameterError("gamma_z must be positive for a steady state")
        return AtomState(0.0, 0.0, -self.C / self.gamma_z)


def rates(lam: float, eta: float, eps: float) -> RateSet:
    """Closed-form decay rates of the feedback master equation.

    Positive lam broadens the x quadrature, negative lam narrows it;
    gamma_x is minimal at lam = -eta eps where it equals (1 - eta eps)/2.
    """
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"mode matching eta must be in (0, 1], got {eta}")
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"detector efficiency eps must be in (0, 1], got {eps}")
    if not lam > -eta:
        raise ParameterError(
            f"feedback strength lam must exceed -eta = {-eta} (got {lam}); "
            "stronger values are unreachable for any stable gain"
        )
    gx = 0.5 * (1.0 + 2.0 * lam + lam * lam / (eta * eps))
    gy = 0.5
    return RateSet(gamma_x=gx, gamma_y=gy, gamma_z=gx + gy, C=1.0 + lam)


def rates_from_squeezing(s_in: float, eta: float) -> float:
    """x-quadrature decay rate [(1 - eta) + eta S]/2 for input noise level S.

    The two contributions are the unmatched vacuum modes, (1 - eta)/2, and
    the matched driving field, eta S / 2.  S < 1 (squeezing) gives a
    sub-natural rate; S = 1 recovers the natural 1/2.
    """
    return 0.5 * ((1.0 - eta) + eta * s_in)


@dataclass(frozen=True, eq=False)
class AffineGenerator:
    """Affine Bloch-space generator r_dot = drift @ r + constant of a master
    equation whose Bloch equations decouple with the closed-form `rates`.

    `drift` and `constant` are the Bloch blocks of the master equation's
    4x4 generator, summed from the superoperator terms of `inloop.bloch`,
    so eigenvalues of `drift` provide an independent check of the
    closed-form rates.
    """

    rates: RateSet
    drift: np.ndarray = field(repr=False)
    constant: np.ndarray = field(repr=False)


def build_generator(lam: float, eta: float, eps: float) -> AffineGenerator:
    """Assemble the feedback master equation as an affine Bloch generator.

    The three terms are the 4x4 generators of the superoperators, weighted
    and summed; trace preservation holds by construction since every term
    is trace free.
    """
    rs = rates(lam, eta, eps)
    sigma = AtomOperator.lowering()
    half_sy = AtomOperator(0.0, 0.0, 0.5, 0.0)
    g = (
        dissipator(sigma)
        + lam * coupling_commutator(sigma, half_sy)
        + lam * lam / (eta * eps) * dissipator(half_sy)
    )
    return AffineGenerator(rs, g[1:, 1:], g[1:, 0])


def propagate(rate_set: RateSet, s0: AtomState, t) -> np.ndarray:
    """Exact propagation of s0 by time t >= 0 (a scalar or an array): the
    Bloch components decay as independent exponentials toward the steady
    state (0, 0, z_ss).  Returns Bloch vectors of shape np.shape(t) + (3,)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ParameterError("evolution times must be nonnegative")
    zss = rate_set.steady_state().z
    return np.stack(
        [
            s0.x * np.exp(-rate_set.gamma_x * t),
            s0.y * np.exp(-rate_set.gamma_y * t),
            zss + (s0.z - zss) * np.exp(-rate_set.gamma_z * t),
        ],
        axis=-1,
    )
