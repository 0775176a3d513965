"""Two-level atom in a broad-band free squeezed vacuum (the comparison model).

A minimum-uncertainty broad-band squeezed input is characterized by the
single number L: the X-quadrature spectrum of the input field, with the Y
quadrature at 1/L.  Mode matching eta of the squeezed beam onto the atomic
dipole gives the master equation

    rho_dot = (1 - eta) D[sigma] rho
              + (eta / 4L) D[(L + 1) sigma - (L - 1) sigma+] rho,

which again yields decoupled Bloch equations with

    gamma_x = [(1 - eta) + eta L] / 2
    gamma_y = [(1 - eta) + eta / L] / 2
    gamma_z = gamma_x + gamma_y,   C = 1.

For L < 1 the x decay is inhibited exactly as for in-loop squeezing at the
same input noise level; the differences are that free squeezing broadens
gamma_y (the conjugate quadrature must be anti-squeezed) and leaves the
drive C = 1 unchanged.

In the standard squeezed-bath parametrization by a photon number N and a
correlation M (with M^2 = N(N + 1) at minimum uncertainty and
L = 2N + 2M + 1), the conversion is closed form:

    N = (L - 1)^2 / (4L),   M = (L^2 - 1) / (4L).
"""

from __future__ import annotations

from .bloch import AtomOperator, dissipator
from .errors import ParameterError
from .feedback import AffineGenerator, RateSet


def free_rates(eta: float, level: float) -> RateSet:
    """Closed-form decay rates for a free squeezed bath of X level L."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"mode matching eta must be in [0, 1], got {eta}")
    if not level > 0.0:
        raise ParameterError(f"X-quadrature level L must be positive, got {level}")
    gx = 0.5 * ((1.0 - eta) + eta * level)
    gy = 0.5 * ((1.0 - eta) + eta / level)
    return RateSet(gamma_x=gx, gamma_y=gy, gamma_z=gx + gy, C=1.0)


def photon_parameters(level: float) -> tuple[float, float]:
    """(N, M) of the minimum-uncertainty bath with X level L:
    N = (L-1)^2/(4L), M = (L^2-1)/(4L); M carries the sign of L - 1 and
    2N + 2M + 1 = L holds exactly."""
    if not level > 0.0:
        raise ParameterError(f"X-quadrature level L must be positive, got {level}")
    n = (level - 1.0) ** 2 / (4.0 * level)
    m = (level * level - 1.0) / (4.0 * level)
    return n, m


def build_squeezed_generator(eta: float, level: float) -> AffineGenerator:
    """Assemble the squeezed-bath master equation as an affine Bloch
    generator.  The single jump operator of the squeezed channel is
    (L+1) sigma - (L-1) sigma+ = sigma_x - i L sigma_y."""
    rs = free_rates(eta, level)
    jump = AtomOperator(0.0, 1.0, -1.0j * level, 0.0)
    g = (1.0 - eta) * dissipator(AtomOperator.lowering()) + eta / (4.0 * level) * dissipator(jump)
    return AffineGenerator(rs, g[1:, 1:], g[1:, 0])
