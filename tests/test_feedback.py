"""Feedback master equation: closed-form rates, numerically built generator,
steady state, exact propagation, and the squeezing identity."""

import numpy as np
import pytest

from inloop import feedback
from inloop.bloch import (
    AtomOperator,
    AtomState,
    coupling_commutator,
    dissipator,
    smallest_choi_eigenvalue,
)
from inloop.errors import ParameterError
from inloop.feedback import (
    build_generator,
    propagate,
    rates,
    rates_from_squeezing,
)
from inloop.loop import squeezing_from_lambda
from inloop.squeezed_bath import free_rates
from oracles import single_pole_hybrid_rates

FIG2 = dict(lam=-0.76, eta=0.8, eps=0.95)


def random_params(rng, lam_max=3.0):
    eta = rng.uniform(0.2, 1.0)
    eps = rng.uniform(0.2, 1.0)
    lam = rng.uniform(-eta + 1e-3, lam_max)
    return lam, eta, eps


def test_rates_no_feedback_is_plain_damping():
    rs = rates(0.0, 0.8, 0.95)
    assert (rs.gamma_x, rs.gamma_y, rs.gamma_z, rs.C) == (0.5, 0.5, 1.0, 1.0)


def test_rates_fig2_point():
    rs = rates(**FIG2)
    assert abs(rs.gamma_x - 0.12) < 1e-14
    assert rs.gamma_y == 0.5
    assert abs(rs.gamma_z - 0.62) < 1e-14
    assert abs(rs.C - 0.24) < 1e-14
    # the optimum lam = -eta eps gives (1 - eta eps)/2
    assert abs(rs.gamma_x - 0.5 * (1.0 - 0.8 * 0.95)) < 1e-14


def test_rates_positive_feedback_broadens():
    assert abs(rates(1.0, 1.0, 1.0).gamma_x - 2.0) < 1e-14


def test_rates_minimized_at_minus_eta_eps():
    # scan oracle: gamma_x over lam is minimal at lam = -eta eps
    eta, eps = 0.7, 0.85
    lams = np.linspace(-eta + 1e-3, 2.0, 20001)
    gx = 0.5 * (1.0 + 2.0 * lams + lams**2 / (eta * eps))
    lam_star = lams[np.argmin(gx)]
    assert abs(lam_star + eta * eps) < 2e-4
    assert abs(gx.min() - 0.5 * (1.0 - eta * eps)) < 1e-7


def test_rates_domain_validation():
    with pytest.raises(ParameterError):
        rates(0.0, 0.0, 0.95)
    with pytest.raises(ParameterError):
        rates(0.0, 0.8, 1.5)
    with pytest.raises(ParameterError):
        rates(-0.9, 0.8, 0.95)


def test_generator_drift_matches_rates():
    rng = np.random.default_rng(23)
    for _ in range(300):
        lam, eta, eps = random_params(rng)
        gen = build_generator(lam, eta, eps)
        rs = rates(lam, eta, eps)
        evals = np.sort(np.linalg.eigvals(gen.drift).real)
        assert np.allclose(
            evals, np.sort([-rs.gamma_x, -rs.gamma_y, -rs.gamma_z]), atol=1e-12
        )
        assert np.allclose(gen.constant, [0.0, 0.0, -rs.C], atol=1e-12)
        # off-diagonal couplings vanish: the Bloch equations decouple
        assert np.max(np.abs(gen.drift - np.diag(np.diag(gen.drift)))) < 1e-12


def test_generator_is_the_per_call_sum_of_bloch_superoperators():
    # the terms tabulated at import give bitwise the generator summed from
    # fresh inloop.bloch superoperators, over lam in (-eta, 10)
    sigma, half_sy = AtomOperator.lowering(), AtomOperator(0.0, 0.0, 0.5, 0.0)
    rng = np.random.default_rng(2311)
    for _ in range(500):
        eta, eps = rng.uniform(1e-3, 1.0, 2)
        lam = rng.uniform(-eta + 1e-9, 10.0)
        g = (
            dissipator(sigma)
            + lam * coupling_commutator(sigma, half_sy)
            + lam * lam / (eta * eps) * dissipator(half_sy)
        )
        gen = build_generator(lam, eta, eps)
        assert np.array_equal(gen.drift, g[1:, 1:]) and np.array_equal(gen.constant, g[1:, 0])


def test_generator_calls_no_superoperator_function(monkeypatch):
    def fail(*args):
        raise AssertionError("superoperator evaluated per call")

    monkeypatch.setattr(feedback, "dissipator", fail)
    monkeypatch.setattr(feedback, "coupling_commutator", fail)
    gen = build_generator(**FIG2)
    assert np.allclose(np.diag(gen.drift), [-0.12, -0.5, -0.62], atol=1e-12)


def test_single_pole_hybrid_generator_reaches_the_markovian_rates():
    # the exact generator of the atom and a single-pole drive, which never
    # reads `rates` or `build_generator`, gives the closed-form rates as
    # tau -> 0 (lam = g eta / (1 - g)); its finite-bandwidth correction is
    # first order in tau, largest (3e-5 relative here) for gains near 1,
    # where the loop is slowest
    rng = np.random.default_rng(2015)
    for _ in range(200):
        eta, eps, g = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0), rng.uniform(-30.0, 0.9)
        rs = rates(g * eta / (1.0 - g), eta, eps)
        np.testing.assert_allclose(
            single_pole_hybrid_rates(eta, eps, g, 1e-5), (rs.gamma_x, rs.gamma_y, rs.gamma_z),
            rtol=1e-4, err_msg=f"eta={eta}, eps={eps}, g={g}",
        )


def test_generator_reduces_to_damping_at_zero_feedback():
    gen = build_generator(0.0, 0.8, 0.95)
    assert np.allclose(gen.drift, np.diag([-0.5, -0.5, -1.0]), atol=1e-14)
    assert np.allclose(gen.constant, [0.0, 0.0, -1.0], atol=1e-14)


def test_steady_state_annihilated_by_generator():
    rng = np.random.default_rng(29)
    for _ in range(200):
        lam, eta, eps = random_params(rng)
        gen = build_generator(lam, eta, eps)
        ss = rates(lam, eta, eps).steady_state()
        assert np.allclose(gen.drift @ ss.bloch + gen.constant, 0.0, atol=1e-12)


def test_steady_state_values():
    assert rates(0.0, 0.8, 0.95).steady_state().z == -1.0
    ss = rates(**FIG2).steady_state()
    assert abs(ss.z - (-0.24 / 0.62)) < 1e-14
    assert abs(ss.z - (-1.0 + 0.76**2 / (2 * 0.76 * 0.24 + 0.76**2))) < 1e-12
    assert abs(ss.z + 0.3870967741935484) < 1e-12
    # maximal mixing in the strong-feedback limit
    assert abs(rates(1e8, 0.8, 0.95).steady_state().z) < 1e-5


def test_evolve_examples():
    gen = build_generator(0.0, 0.8, 0.95)
    s0 = AtomState(1.0, 0.0, 0.0)
    assert AtomState(*propagate(gen.rates, s0, 0.0)) == s0
    s2 = AtomState(*propagate(gen.rates, s0, 2.0))
    assert abs(s2.x - np.exp(-1.0)) < 1e-14
    assert abs(s2.z - (-1.0 + np.exp(-2.0))) < 1e-14
    with pytest.raises(ParameterError):
        propagate(gen.rates, s0, -1.0)


def test_evolve_semigroup_property():
    rng = np.random.default_rng(31)
    for _ in range(100):
        lam, eta, eps = random_params(rng)
        rs = build_generator(lam, eta, eps).rates
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        s0 = AtomState(*r)
        t1, t2 = rng.uniform(0, 3, 2)
        once = AtomState(*propagate(rs, s0, t1 + t2))
        mid = AtomState(*propagate(rs, s0, t1))
        twice = AtomState(*propagate(rs, mid, t2))
        assert np.allclose(once.bloch, twice.bloch, atol=1e-12)


def test_evolve_preserves_purity_bound():
    rng = np.random.default_rng(37)
    ts = np.linspace(0.0, 5.0, 41)
    for _ in range(50):
        lam, eta, eps = random_params(rng)
        gen = build_generator(lam, eta, eps)
        path = propagate(gen.rates, AtomState(1.0, 0.0, 0.0), ts)
        assert np.all(np.sum(path**2, axis=1) <= 1.0 + 1e-9)


def test_headline_identity_rates_from_squeezing():
    # gamma_x(lam) == [(1-eta) + eta S(lam)]/2 == free-bath gamma_x at L = S
    rng = np.random.default_rng(41)
    for _ in range(1000):
        lam, eta, eps = random_params(rng)
        gx = rates(lam, eta, eps).gamma_x
        s_in = squeezing_from_lambda(lam, eta, eps)
        assert abs(gx - rates_from_squeezing(s_in, eta)) < 1e-12
        assert abs(gx - free_rates(eta, s_in).gamma_x) < 1e-12


def test_rates_from_squeezing_values():
    assert rates_from_squeezing(1.0, 0.8) == 0.5
    assert abs(rates_from_squeezing(0.05, 0.8) - 0.12) < 1e-14
    assert rates_from_squeezing(0.0, 1.0) == 0.0


def test_subnatural_iff_squeezed():
    rng = np.random.default_rng(43)
    for _ in range(500):
        lam, eta, eps = random_params(rng)
        gx = rates(lam, eta, eps).gamma_x
        s_in = squeezing_from_lambda(lam, eta, eps)
        assert (gx < 0.5) == (s_in < 1.0)


def test_choi_positivity_of_propagator():
    rng = np.random.default_rng(47)
    for _ in range(60):
        lam, eta, eps = random_params(rng)
        gen = build_generator(lam, eta, eps)
        for dt in (1e-3, 1e-2, 1e-1):
            assert smallest_choi_eigenvalue(gen.drift, gen.constant, dt) > -1e-10
