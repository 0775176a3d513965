"""Correlation functions and fluorescence spectra: closed forms against the
matrix regression oracle, transform convention, numerical route, fits, and
the two-model comparison report."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from inloop.bloch import PAULI_X, PAULI_Y
from inloop.errors import ParameterError
from inloop.feedback import RateSet, build_generator, rates
from inloop.spectra import (
    analytic_power_spectrum,
    comparison_report,
    correlation,
    fit_lorentzian_pair,
    numerical_power_spectrum,
    spectral_weight,
    total_flux,
)
from inloop.squeezed_bath import build_squeezed_generator, free_rates
from oracles import bloch_to_matrix

FIG2_RATES = rates(-0.76, 0.8, 0.95)
FIG2_ZSS = rates(-0.76, 0.8, 0.95).steady_state().z


def feedback_superop_matrix(lam, eta, eps):
    """4x4 matrix of the feedback Liouvillian on vectorized 2x2 matrices,
    built by direct matrix arithmetic (independent of the Bloch route)."""
    sig = np.array([[0, 0], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)

    def liouville(r):
        d_sig = sig @ r @ sig.conj().T - 0.5 * (
            sig.conj().T @ sig @ r + r @ sig.conj().T @ sig
        )
        m = sig @ r + r @ sig.conj().T
        cross = -1j * lam * 0.5 * (sy @ m - m @ sy)
        hsy = 0.5 * sy
        d_sy = hsy @ r @ hsy - 0.5 * (hsy @ hsy @ r + r @ hsy @ hsy)
        return d_sig + cross + (lam * lam / (eta * eps)) * d_sy

    cols = []
    for j in range(4):
        e = np.zeros(4, dtype=complex)
        e[j] = 1.0
        cols.append(liouville(e.reshape(2, 2, order="F")).reshape(4, order="F"))
    return np.column_stack(cols)


def test_correlation_examples():
    assert correlation(FIG2_RATES, -1.0, 0.0) == 0.0
    c1 = correlation(FIG2_RATES, FIG2_ZSS, 1.0)
    expected = 0.25 * (1.0 + FIG2_ZSS) * (np.exp(-0.12) + np.exp(-0.5))
    assert abs(c1 - expected) < 1e-14
    assert abs(correlation(FIG2_RATES, FIG2_ZSS, 0.0) - 0.5 * (1.0 + FIG2_ZSS)) < 1e-14
    with pytest.raises(ParameterError):
        correlation(FIG2_RATES, FIG2_ZSS, -0.5)


def test_correlation_monotone_nonincreasing():
    taus = np.linspace(0.0, 20.0, 400)
    c = correlation(FIG2_RATES, FIG2_ZSS, taus)
    assert np.all(np.diff(c) <= 1e-15)


def test_correlation_against_matrix_regression_oracle():
    # propagate sigma rho_ss under the vectorized Liouvillian and take the
    # sigma+ trace: <sigma+(tau) sigma(0)> = Tr[sigma+ exp(L tau)(sigma rho_ss)]
    lam, eta, eps = -0.76, 0.8, 0.95
    sup = feedback_superop_matrix(lam, eta, eps)
    rho_ss = bloch_to_matrix(rates(lam, eta, eps).steady_state())
    sig = np.array([[0, 0], [1, 0]], dtype=complex)
    start = (sig @ rho_ss).reshape(4, order="F")
    rs = rates(lam, eta, eps)
    for tau in (0.0, 0.3, 1.0, 4.0):
        evolved = (expm(sup * tau) @ start).reshape(2, 2, order="F")
        oracle = np.trace(sig.conj().T @ evolved)
        assert abs(oracle.imag) < 1e-12
        assert abs(oracle.real - correlation(rs, FIG2_ZSS, tau)) < 1e-12


def test_analytic_spectrum_dark_when_undriven():
    rs = rates(0.0, 0.8, 0.95)
    grid = np.linspace(-3, 3, 201)
    assert np.all(analytic_power_spectrum(rs, 0.8, grid).values == 0.0)


def test_analytic_spectrum_fig2_values():
    grid = np.linspace(-3, 3, 1201)
    p_in = analytic_power_spectrum(FIG2_RATES, 0.8, grid)
    # peak value recomputed independently from the Lorentzian-pair formula
    peak = 0.2 * 0.38 / (8 * np.pi * 0.62) * (1.0 / 0.12 + 1.0 / 0.5)
    assert abs(p_in.at(0.0) - peak) < 1e-14
    assert abs(p_in.at(0.0) - 0.0503990653) < 1e-9
    fr = free_rates(0.8, 0.05)
    p_fr = analytic_power_spectrum(fr, 0.8, grid)
    peak_fr = 0.2 * 7.22 / (8 * np.pi * 8.22) * (1.0 / 0.12 + 1.0 / 8.1)
    assert abs(p_fr.at(0.0) - peak_fr) < 1e-12


def test_spectrum_even_positive_decreasing():
    grid = np.linspace(-3, 3, 1201)
    for rs in (FIG2_RATES, free_rates(0.8, 0.05)):
        p = analytic_power_spectrum(rs, 0.8, grid).values
        assert np.allclose(p, p[::-1], atol=1e-16)
        assert np.all(p >= 0.0)
        right = p[grid >= 0.0]
        assert np.all(np.diff(right) < 0.0)


def test_spectral_weight_guard():
    with pytest.raises(ParameterError):
        spectral_weight(RateSet(gamma_x=0.2, gamma_y=0.5, gamma_z=0.7, C=0.9))


def test_transform_convention_lock():
    # the one-sided transform of a single decaying exponential must equal the
    # Lorentzian of the closed form to 1e-10; quadrature oracle via quad
    eta = 0.8
    amp, gamma = 0.153225, 0.37
    for omega in (0.0, 0.21, 1.3, 2.9):
        num, _ = quad(
            lambda t: amp * np.exp(-gamma * t) * np.cos(omega * t), 0.0, np.inf, limit=400
        )
        lhs = (1.0 - eta) / (2.0 * np.pi) * num
        rhs = (1.0 - eta) * amp * gamma / (2.0 * np.pi * (gamma**2 + omega**2))
        assert abs(lhs - rhs) < 1e-10


def test_numerical_matches_analytic_both_models():
    grid = np.linspace(-3, 3, 241)
    gen_in = build_generator(-0.76, 0.8, 0.95)
    gen_fr = build_squeezed_generator(0.8, 0.05)
    for gen, rs in ((gen_in, FIG2_RATES), (gen_fr, free_rates(0.8, 0.05))):
        num = numerical_power_spectrum(gen, 0.8, grid, tau_max=200.0 / 0.12, dtau=1e-3)
        ana = analytic_power_spectrum(rs, 0.8, grid)
        assert np.max(np.abs(num.values - ana.values)) < 1e-4


def test_numerical_spectrum_reads_the_generator():
    # a 1 % shift of gamma_x in the drift alone must fail acceptance
    # criterion 3's numerical-vs-analytic comparison (it moves the spectrum
    # by about 4e-4); the generator's closed-form rates stay unperturbed
    grid = np.linspace(-3.0, 3.0, 1201)
    gen = build_generator(-0.76, 0.8, 0.95)
    drift = gen.drift.copy()
    drift[0, 0] *= 1.01
    ana = analytic_power_spectrum(gen.rates, 0.8, grid)
    for g, agrees in ((gen, True), (dataclasses.replace(gen, drift=drift), False)):
        num = numerical_power_spectrum(g, 0.8, grid, tau_max=200.0 / 0.12, dtau=1e-3)
        assert (np.max(np.abs(num.values - ana.values)) < 1e-4) == agrees


def test_numerical_rejects_underresolved():
    gen = build_generator(-0.76, 0.8, 0.95)
    grid = np.linspace(-3, 3, 41)
    with pytest.raises(ParameterError):
        numerical_power_spectrum(gen, 0.8, grid, tau_max=5.0, dtau=1e-3)
    with pytest.raises(ParameterError):
        numerical_power_spectrum(gen, 0.8, grid, tau_max=2000.0, dtau=0.2)


def test_numerical_transform_nonuniform_grid_path():
    gen = build_generator(-0.76, 0.8, 0.95)
    grid = np.concatenate([np.linspace(-1, 1, 41), [1.5, 2.7]])
    num = numerical_power_spectrum(gen, 0.8, grid, tau_max=400.0, dtau=1e-3)
    ana = analytic_power_spectrum(FIG2_RATES, 0.8, grid)
    assert np.max(np.abs(num.values - ana.values)) < 1e-4


def test_lorentzian_fit_recovers_both_widths():
    grid = np.linspace(-3, 3, 1201)
    fit_in = fit_lorentzian_pair(analytic_power_spectrum(FIG2_RATES, 0.8, grid))
    assert abs(fit_in["narrow"] - 0.12) / 0.12 < 1e-6
    assert abs(fit_in["broad"] - 0.5) / 0.5 < 1e-6
    fit_fr = fit_lorentzian_pair(analytic_power_spectrum(free_rates(0.8, 0.05), 0.8, grid))
    assert abs(fit_fr["narrow"] - 0.12) / 0.12 < 1e-6
    # the broad free component is barely resolved on [-3, 3]; a loose check
    assert abs(fit_fr["broad"] - 8.1) / 8.1 < 0.05


def test_lorentzian_fit_on_numerical_spectrum():
    gen = build_generator(-0.76, 0.8, 0.95)
    grid = np.linspace(-3, 3, 601)
    num = numerical_power_spectrum(gen, 0.8, grid, tau_max=200.0 / 0.12, dtau=1e-3)
    fit = fit_lorentzian_pair(num)
    assert abs(fit["narrow"] - 0.12) / 0.12 < 0.01
    assert abs(fit["broad"] - 0.5) / 0.5 < 0.01


def test_total_flux_closed_form_against_quad():
    for rs in (FIG2_RATES, free_rates(0.8, 0.05)):
        pref = 0.2 * spectral_weight(rs) / (8.0 * np.pi)
        integral, _ = quad(
            lambda w: pref
            * (
                rs.gamma_x / (rs.gamma_x**2 + w**2)
                + rs.gamma_y / (rs.gamma_y**2 + w**2)
            ),
            -np.inf,
            np.inf,
            limit=400,
        )
        assert abs(integral - total_flux(rs, 0.8)) < 1e-9


def test_comparison_report_structure_and_rates():
    rep = comparison_report()
    assert rep.grid.size == 1201
    assert rep.grid[600] == 0.0
    assert abs(rep.squeezing - 0.05) < 1e-14
    assert abs(rep.inloop_rates.gamma_x - 0.12) < 1e-14
    assert abs(rep.free_rates.gamma_y - 8.1) < 1e-12
    # shared narrow width, disparate broad components
    f_in = fit_lorentzian_pair(
        analytic_power_spectrum(rep.inloop_rates, rep.eta, rep.grid)
    )
    f_fr = fit_lorentzian_pair(analytic_power_spectrum(rep.free_rates, rep.eta, rep.grid))
    assert abs(f_in["narrow"] - 0.12) < 1e-6
    assert abs(f_fr["narrow"] - 0.12) < 1e-6
    # total weights (gamma_z - C)/gamma_z
    assert abs(spectral_weight(rep.inloop_rates) - 0.38 / 0.62) < 1e-12
    assert abs(spectral_weight(rep.free_rates) - 7.22 / 8.22) < 1e-12
    # natural curve is peak-matched
    assert abs(rep.p_natural[600] - rep.p_inloop[600]) < 1e-15
    assert abs(rep.natural_scale - rep.p_inloop[600]) < 1e-15
    # both spectra peak at zero
    assert np.argmax(rep.p_inloop) == 600
    assert np.argmax(rep.p_free) == 600


def test_comparison_report_vanishes_at_zero_efficiency_limit():
    rep = comparison_report(eta=0.8, eps=1e-12)
    assert np.max(rep.p_inloop) < 1e-12
