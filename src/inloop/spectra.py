"""Fluorescence power spectra by quantum regression of the dipole correlation.

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
above is adopted throughout.

The analytic evaluator (the Lorentzian pair) reads the closed-form rates.
The numerical route reads only the generator's drift and constant: it
regresses sigma rho_ss through the drift's eigenmodes and sums the
trapezoid rule for the transform exactly per mode, with the exact tail;
nothing is sampled or fitted.  The two must agree to the rule's
dtau-limited error, which is the main cross-check of the module.  The
total flux integral is int P(w) dw = (1-eta)(gamma_z - C)/(4 gamma_z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bloch import AtomOperator
from .errors import ParameterError, positive
from .feedback import AffineGenerator, RateSet, rates
from .squeezed_bath import free_rates

# Frequency grid of the two-model comparison: COMPARISON_POINTS points over
# [-COMPARISON_SPAN, COMPARISON_SPAN].
COMPARISON_SPAN = 3.0
COMPARISON_POINTS = 1201
# Largest residual norm, relative to the data's norm, of an accepted
# Lorentzian-pair fit.  Spectra of either model fit to below 1e-6; a
# spectrum that is no Lorentzian pair leaves a sizable fraction.
FIT_RESIDUAL_LIMIT = 0.05

@dataclass(frozen=True, eq=False)
class Spectrum:
    """Power spectrum on an ordered angular-frequency grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.shape != self.values.shape:
            raise ParameterError("grid and values must have matching shapes")


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


def numerical_power_spectrum(
    gen: AffineGenerator, eta: float, grid, tau_max: float | None, dtau: float
) -> Spectrum:
    """Fluorescence spectrum from the generator's drift and constant alone,
    by the trapezoid rule for the one-sided transform of the correlation
    function on the lags 0, dtau, ..., tau_max, plus the exact tail beyond
    tau_max.

    The steady state solves drift @ r_ss = -constant.  With sigma =
    a . sigma_vec, the operator sigma rho_ss has Pauli components
    a + i a x r_ss and trace a . r_ss = <sigma>_ss = 0, so it evolves under
    the drift alone, through one eigendecomposition, and
    c(tau) = conj(a) . exp(drift tau) (a + i a x r_ss) = sum_k w_k
    exp(lam_k tau) over the drift's eigenvalues lam_k, whose decay rates
    bound tau_max and dtau.  The cost does not grow with tau_max / dtau.
    tau_max = None spans 200 of the slowest decay times.

    `gen` is the `AffineGenerator` of either model.
    """
    evals, vecs = np.linalg.eig(gen.drift)
    r_ss = np.linalg.solve(gen.drift, -gen.constant)
    grid = np.asarray(grid, dtype=float)
    g_min = float(np.min(-evals.real))
    g_max = float(np.max(-evals.real))
    if tau_max is None:
        tau_max = 200.0 / g_min
    if not dtau > 0.0:
        raise ParameterError(f"dtau must be positive, got {dtau}")
    if tau_max * g_min < 20.0:
        raise ParameterError(
            f"tau_max = {tau_max:.3g} under-resolves the slowest decay; "
            f"need tau_max >= {20.0 / g_min:.3g}"
        )
    positive("tau_max", tau_max)
    if dtau * g_max > 0.02:
        raise ParameterError(
            f"dtau = {dtau:.3g} under-resolves the fastest decay; "
            f"need dtau <= {0.02 / g_max:.3g}"
        )
    a = AtomOperator.lowering().vector
    weights = (np.conj(a) @ vecs) * np.linalg.solve(vecs, a + 1j * np.cross(a, r_ss))
    # With s = lam_k + i w and z = exp(s dtau), mode k's trapezoid sum over
    # tau_j = j dtau, j = 0..n, is a geometric series in z; its tail is -z^n/s.
    n = int(round(tau_max / dtau))
    s = np.add.outer(1j * grid, evals)
    z_n = np.exp(s * (n * dtau))
    step = np.expm1(s * dtau)
    trapezoid = dtau * ((1.0 - z_n * (1.0 + step)) / -step - 0.5 * (1.0 + z_n))
    transform = (trapezoid - z_n / s) @ weights
    vals = (1.0 - eta) / (2.0 * np.pi) * np.real(transform)
    return Spectrum(grid=grid, values=vals)


def fit_lorentzian_pair(spectrum: Spectrum) -> dict:
    """Least-squares fit of A [g1/(g1^2 + w^2) + g2/(g2^2 + w^2)] to a
    spectrum; returns the narrow and broad half widths, the amplitude and
    the cost (half the squared residual norm).  Levenberg-Marquardt with the
    analytic Jacobian and A, g1, g2 > 1e-12; it converges when a step moves
    each by at most 1e-12 relative and raises `ParameterError` after 100
    iterations otherwise.  It also raises when the residual norm exceeds
    FIT_RESIDUAL_LIMIT times the data's norm: the data are then no
    Lorentzian pair.  On both models' spectra it agrees with scipy's
    `least_squares` to 2e-9 relative, at an equal or lower cost."""
    w = spectrum.grid
    p = spectrum.values
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(p))):
        raise ParameterError("cannot fit a Lorentzian pair to a non-finite spectrum")
    peak = float(np.max(p))
    if peak <= 0.0:
        raise ParameterError("cannot fit a Lorentzian pair to an empty spectrum")
    half = np.abs(p - 0.5 * peak)
    narrow0 = max(abs(float(w[np.argmin(half)])), 1e-3)
    w2 = w * w

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(x):
        a, g1, g2 = x
        d1, d2 = g1 * g1 + w2, g2 * g2 + w2
        shape = g1 / d1 + g2 / d2
        r = a * shape - p
        jac = np.stack([shape, a * (w2 - g1 * g1) / d1 / d1, a * (w2 - g2 * g2) / d2 / d2], 1)
        return 0.5 * float(r @ r), r, jac

    x = np.array([peak * narrow0 / 2.0, narrow0, 10.0 * narrow0])
    cost, r, jac = evaluate(x)
    damping, scale = 1e-3, np.zeros(3)
    for _ in range(100):
        jtj = jac.T @ jac
        scale = np.maximum(scale, np.diag(jtj))
        step = np.linalg.solve(jtj + damping * np.diag(scale), -(jac.T @ r))
        trial = x + step
        if np.all(trial > 1e-12) and (new := evaluate(trial))[0] <= cost:
            x, (cost, r, jac) = trial, new
            if np.all(np.abs(step) <= 1e-12 * x):
                break
            damping = max(0.1 * damping, 1e-12)
        else:
            damping *= 10.0
    else:
        raise ParameterError("Lorentzian-pair fit did not converge in 100 iterations")
    misfit = np.sqrt(2.0 * cost) / np.linalg.norm(p)
    if misfit > FIT_RESIDUAL_LIMIT:
        raise ParameterError(
            f"no Lorentzian pair fits the spectrum: residual norm / data norm = {misfit:.3g} "
            f"> {FIT_RESIDUAL_LIMIT}"
        )
    a, g1, g2 = x
    return {
        "amplitude": float(a),
        "narrow": float(min(g1, g2)),
        "broad": float(max(g1, g2)),
        "cost": cost,
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


def comparison_report(eta: float = 0.8, eps: float = 0.95) -> ComparisonReport:
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
    grid = np.linspace(-COMPARISON_SPAN, COMPARISON_SPAN, COMPARISON_POINTS)
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
