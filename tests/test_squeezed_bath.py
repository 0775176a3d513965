"""Free squeezed bath: rates, generator, photon-parameter conversion, and the
cross-model decay-rate identity."""

import numpy as np
import pytest
from scipy.optimize import brentq

from inloop.bloch import smallest_choi_eigenvalue
from inloop.errors import ParameterError
from inloop.feedback import propagate, rates_from_squeezing
from inloop.squeezed_bath import (
    build_squeezed_generator,
    free_rates,
    photon_parameters,
)
from inloop.bloch import AtomState


def test_vacuum_bath_is_plain_damping():
    rs = free_rates(0.8, 1.0)
    assert (rs.gamma_x, rs.gamma_y, rs.gamma_z, rs.C) == (0.5, 0.5, 1.0, 1.0)


def test_fig2_bath_rates():
    rs = free_rates(0.8, 0.05)
    assert abs(rs.gamma_x - 0.12) < 1e-14
    assert abs(rs.gamma_y - 8.1) < 1e-14
    assert abs(rs.gamma_z - 8.22) < 1e-14
    assert rs.C == 1.0


def test_rates_domain():
    with pytest.raises(ParameterError):
        free_rates(0.8, 0.0)
    with pytest.raises(ParameterError):
        free_rates(1.2, 0.5)


def test_generator_eigenvalues_match_rates():
    rng = np.random.default_rng(51)
    for _ in range(300):
        eta = rng.uniform(0.0, 1.0)
        level = np.exp(rng.uniform(np.log(0.01), np.log(20.0)))
        gen = build_squeezed_generator(eta, level)
        rs = free_rates(eta, level)
        evals = np.sort(np.linalg.eigvals(gen.drift).real)
        assert np.allclose(
            evals, np.sort([-rs.gamma_x, -rs.gamma_y, -rs.gamma_z]), atol=1e-10
        )
        assert np.allclose(gen.constant, [0.0, 0.0, -1.0], atol=1e-12)


def test_photon_parameters_closed_form_and_roundtrip():
    n, m = photon_parameters(1.0)
    assert n == 0.0 and m == 0.0
    n, m = photon_parameters(0.05)
    assert abs(n - 4.5125) < 1e-12
    assert abs(m + 4.9875) < 1e-12
    for level in (0.05, 0.3, 1.0, 2.5, 9.0):
        n, m = photon_parameters(level)
        assert n >= 0.0
        assert abs(2 * n + 2 * m + 1 - level) < 1e-10
        assert abs(m * m - n * (n + 1)) < 1e-10
        assert np.sign(m) == np.sign(level - 1.0) or m == 0.0


def test_photon_parameters_against_root_finding():
    # independent oracle: solve 2N + 2 sign(L-1) sqrt(N(N+1)) + 1 = L for N
    for level in (0.05, 9.0):
        sgn = np.sign(level - 1.0)
        f = lambda n: 2 * n + 2 * sgn * np.sqrt(n * (n + 1)) + 1 - level
        n_oracle = brentq(f, 0.0, 100.0, xtol=1e-14)
        n, m = photon_parameters(level)
        assert abs(n - n_oracle) < 1e-10


def test_steady_state_values():
    assert free_rates(0.8, 1.0).steady_state().z == -1.0
    assert abs(free_rates(0.8, 0.05).steady_state().z + 1.0 / 8.22) < 1e-12
    assert free_rates(0.0, 0.05).steady_state().z == -1.0


def test_gamma_y_strictly_decreasing_in_level():
    rng = np.random.default_rng(53)
    for _ in range(300):
        eta = rng.uniform(0.05, 1.0)
        l1, l2 = np.sort(rng.uniform(0.01, 1.0, 2))
        if l1 == l2:
            continue
        assert free_rates(eta, l1).gamma_y > free_rates(eta, l2).gamma_y


def test_choi_positivity_small_time_maps():
    rng = np.random.default_rng(59)
    for _ in range(60):
        eta = rng.uniform(0.0, 1.0)
        level = np.exp(rng.uniform(np.log(0.02), np.log(10.0)))
        gen = build_squeezed_generator(eta, level)
        for dt in (1e-3, 1e-2, 1e-1):
            assert smallest_choi_eigenvalue(gen.drift, gen.constant, dt) > -1e-10


def test_cross_model_identity():
    # same gamma_x as the feedback model driven at squeezing S = L
    rng = np.random.default_rng(61)
    for _ in range(500):
        eta = rng.uniform(0.05, 1.0)
        level = np.exp(rng.uniform(np.log(0.02), np.log(5.0)))
        assert abs(free_rates(eta, level).gamma_x - rates_from_squeezing(level, eta)) < 1e-12


def test_free_evolve_matches_rates():
    gen = build_squeezed_generator(0.8, 0.05)
    s = AtomState.from_bloch(propagate(gen.rates, AtomState(1.0, 1.0, 0.0), 0.7))
    rs = free_rates(0.8, 0.05)
    assert abs(s.x - np.exp(-rs.gamma_x * 0.7)) < 1e-14
    assert abs(s.y - np.exp(-rs.gamma_y * 0.7)) < 1e-14
    zss = free_rates(0.8, 0.05).steady_state().z
    assert abs(s.z - (zss - zss * np.exp(-rs.gamma_z * 0.7))) < 1e-14
