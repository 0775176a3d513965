"""Fluorescence correlation functions and power spectra by quantum regression.

For either master equation (feedback or free squeezed bath) the Bloch
equations decouple, so the steady-state dipole correlation follows from the
regression rule applied to sigma rho_ss = (1 + z_ss)/2 sigma:

    c(tau) = <sigma+(t + tau) sigma(t)>_ss
           = (1 + z_ss)/4 [exp(-gamma_x tau) + exp(-gamma_y tau)],

with c(0) the steady excited-state population (1 + z_ss)/2.  The power
spectrum of the fluorescence into the unmatched vacuum modes (photon flux
per unit angular frequency, a factor 1 - eta of the emission) is the
one-sided transform

    P(w) = (1 - eta)/(2 pi) Re int_0^inf exp(i w tau) c(tau) dtau
         = (1 - eta)(gamma_z - C) / (8 pi gamma_z)
           [gamma_x/(gamma_x^2 + w^2) + gamma_y/(gamma_y^2 + w^2)],

using 1 + z_ss = (gamma_z - C)/gamma_z.  A symmetric two-sided stationary
convention would give twice these values; the one-sided normalization
above is adopted throughout and tagged on every emitted spectrum.

Both an analytic evaluator (the Lorentzian pair) and a numerical
quadrature of the transform are provided; they must agree to the
discretization tolerance, which is the main self-consistency check of the
module.  The total flux integral is int P(w) dw = (1-eta)(gamma_z - C)/(4 gamma_z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .feedback import AffineGenerator, RateSet, rates
from .squeezed_bath import free_rates

CONVENTION = "one-sided transform; photon flux per unit angular frequency"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Power spectrum on an ordered angular-frequency grid."""

    grid: np.ndarray
    values: np.ndarray
    convention: str = CONVENTION

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ParameterError("grid and values must have matching shapes")

    def at(self, omega: float) -> float:
        idx = int(np.argmin(np.abs(self.grid - omega)))
        return float(self.values[idx])


def correlation(rate_set: RateSet, z_ss: float, tau) -> np.ndarray:
    """Steady-state dipole correlation c(tau) for tau >= 0."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ParameterError("correlation lags must be nonnegative")
    amp = 0.25 * (1.0 + z_ss)
    return amp * (np.exp(-rate_set.gamma_x * tau) + np.exp(-rate_set.gamma_y * tau))


def spectral_weight(rate_set: RateSet) -> float:
    """Common Lorentzian weight (gamma_z - C)/gamma_z = 1 + z_ss; vanishes
    for an undriven atom (no fluorescence)."""
    w = (rate_set.gamma_z - rate_set.C) / rate_set.gamma_z
    if w < -1e-12:
        raise ParameterError(
            f"negative spectral weight gamma_z - C = {rate_set.gamma_z - rate_set.C:.3e}: "
            "parameters do not describe a driven steady state"
        )
    return max(w, 0.0)


def analytic_power_spectrum(rate_set: RateSet, eta: float, grid) -> Spectrum:
    """Closed-form fluorescence spectrum: a narrow Lorentzian of half width
    gamma_x plus a broad one of half width gamma_y, equal weights."""
    grid = np.asarray(grid, dtype=float)
    pref = (1.0 - eta) * spectral_weight(rate_set) / (8.0 * np.pi)
    vals = pref * (
        rate_set.gamma_x / (rate_set.gamma_x**2 + grid**2)
        + rate_set.gamma_y / (rate_set.gamma_y**2 + grid**2)
    )
    return Spectrum(grid=grid, values=vals)


def total_flux(rate_set: RateSet, eta: float) -> float:
    """Closed-form integral of P over the whole frequency axis."""
    return (1.0 - eta) * spectral_weight(rate_set) / 4.0


def _oscillatory_transform(samples: np.ndarray, dtau: float, grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of int_0^T c(tau) exp(i w tau) dtau on a uniform
    tau grid, evaluated for every w at once.

    For a uniformly spaced frequency grid this is a chirp-z transform
    (cost ~ FFT); otherwise the sum is accumulated in tau blocks.
    """
    x = samples.astype(complex)
    x[0] *= 0.5
    x[-1] *= 0.5
    x *= dtau
    dws = np.diff(grid)
    if dws.size and np.allclose(dws, dws[0], rtol=1e-9, atol=0.0):
        from scipy.signal import czt

        a = np.exp(-1j * grid[0] * dtau)
        w = np.exp(1j * dws[0] * dtau)
        return czt(x, m=grid.size, w=w, a=a)
    taus = np.arange(samples.size) * dtau
    out = np.zeros(grid.size, dtype=complex)
    for start in range(0, samples.size, 65536):
        chunk = slice(start, min(start + 65536, samples.size))
        out += np.exp(1j * np.multiply.outer(grid, taus[chunk])) @ x[chunk]
    return out


def numerical_power_spectrum(
    gen: AffineGenerator, eta: float, grid, tau_max: float, dtau: float
) -> Spectrum:
    """Fluorescence spectrum by quadrature of the one-sided transform of the
    correlation function, with an analytic correction for the tail beyond
    tau_max (single exponential fitted to the last fifth of the samples).

    `gen` is the `AffineGenerator` of either model.
    """
    rs = gen.rates
    z_ss = rs.steady_state().z
    grid = np.asarray(grid, dtype=float)
    g_min = min(rs.gamma_x, rs.gamma_y)
    g_max = max(rs.gamma_x, rs.gamma_y)
    if not dtau > 0.0:
        raise ParameterError(f"dtau must be positive, got {dtau}")
    if tau_max * g_min < 20.0:
        raise ParameterError(
            f"tau_max = {tau_max:.3g} under-resolves the slowest decay; "
            f"need tau_max >= {20.0 / g_min:.3g}"
        )
    if dtau * g_max > 0.02:
        raise ParameterError(
            f"dtau = {dtau:.3g} under-resolves the fastest decay; "
            f"need dtau <= {0.02 / g_max:.3g}"
        )
    taus = np.arange(int(round(tau_max / dtau)) + 1) * dtau
    c = correlation(rs, z_ss, taus)

    transform = _oscillatory_transform(c, dtau, grid)

    # Tail fit: log-linear regression over the last fifth of the samples.
    tail = slice(int(0.8 * taus.size), taus.size)
    if np.all(c[tail] > 0.0):
        slope, intercept = np.polyfit(taus[tail], np.log(c[tail]), 1)
        g_fit, a_fit = -slope, np.exp(intercept)
        transform = transform + a_fit * np.exp(
            (1j * grid - g_fit) * taus[-1]
        ) / (g_fit - 1j * grid)

    vals = (1.0 - eta) / (2.0 * np.pi) * np.real(transform)
    return Spectrum(grid=grid, values=vals)


def fit_lorentzian_pair(spectrum: Spectrum) -> dict:
    """Least-squares fit of A [g1/(g1^2 + w^2) + g2/(g2^2 + w^2)] to a
    spectrum; returns the narrow and broad half widths and the amplitude."""
    w = spectrum.grid
    p = spectrum.values
    peak = float(np.max(p))
    if peak <= 0.0:
        raise ParameterError("cannot fit a Lorentzian pair to an empty spectrum")
    half = np.abs(p - 0.5 * peak)
    narrow0 = max(abs(float(w[np.argmin(half)])), 1e-3)

    def residual(params):
        a, g1, g2 = params
        return a * (g1 / (g1**2 + w**2) + g2 / (g2**2 + w**2)) - p

    from scipy.optimize import least_squares

    start = np.array([peak * narrow0 / 2.0, narrow0, 10.0 * narrow0])
    fit = least_squares(residual, start, bounds=(1e-12, np.inf), xtol=1e-14, ftol=1e-14)
    a, g1, g2 = fit.x
    return {
        "amplitude": float(a),
        "narrow": float(min(g1, g2)),
        "broad": float(max(g1, g2)),
        "cost": float(fit.cost),
    }


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Paired fluorescence spectra of the in-loop and free-squeezing models
    at matched input squeezing, plus the scaled natural-linewidth curve."""

    eta: float
    eps: float
    squeezing: float
    inloop_rates: RateSet
    free_rates: RateSet
    grid: np.ndarray = field(repr=False)
    p_inloop: np.ndarray = field(repr=False)
    p_free: np.ndarray = field(repr=False)
    p_natural: np.ndarray = field(repr=False)
    natural_scale: float = 0.0

    def rate_table(self) -> dict:
        return {
            "eta": self.eta,
            "eps": self.eps,
            "S_in": self.squeezing,
            "inloop": self.inloop_rates.as_dict(),
            "free": self.free_rates.as_dict(),
        }


def comparison_report(
    eta: float = 0.8,
    eps: float = 0.95,
    span: float = 3.0,
    n_points: int = 1201,
) -> ComparisonReport:
    """Spectra of both models at the optimal feedback point lam = -eta eps,
    where the in-loop squeezing is S = 1 - eps and the matched free bath
    has X level L = S.

    Both curves share the narrow half width [(1 - eta) + eta S]/2; they
    differ in the broad component (1/2 in loop versus the anti-squeezed
    [(1 - eta) + eta/S]/2 for the free bath) and in their total weights.
    The natural-width Lorentzian (half width 1/2) is peak-matched to the
    in-loop curve; its scale factor is reported.
    """
    lam = -eta * eps
    s_in = 1.0 - eps
    rs_in = rates(lam, eta, eps)
    rs_free = free_rates(eta, s_in)
    grid = np.linspace(-span, span, n_points)
    p_in = analytic_power_spectrum(rs_in, eta, grid).values
    p_free = analytic_power_spectrum(rs_free, eta, grid).values
    peak = float(p_in[np.argmin(np.abs(grid))])
    p_nat = peak * 0.25 / (0.25 + grid**2)
    return ComparisonReport(
        eta=eta,
        eps=eps,
        squeezing=s_in,
        inloop_rates=rs_in,
        free_rates=rs_free,
        grid=grid,
        p_inloop=p_in,
        p_free=p_free,
        p_natural=p_nat,
        natural_scale=peak,
    )
