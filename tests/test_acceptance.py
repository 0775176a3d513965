"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Times and frequencies are
in atomic-lifetime units throughout; the reference operating point is
mode matching eta = 0.8 and detector efficiency eps = 0.95, where the
optimal loop (g = -19, lam = -0.76) squeezes the in-loop field to
S = 1 - eps = 0.05 and narrows the x-quadrature decay to 0.12.
"""

import time

import numpy as np

from inloop.bloch import AtomState, smallest_choi_eigenvalue
from inloop.feedback import build_generator, propagate, rates, rates_from_squeezing
from inloop.loop import (
    LoopConfig,
    LoopFilter,
    band_average,
    in_loop_spectrum,
    squeezing_from_lambda,
    simulate_classical_loop,
    welch_spectrum,
)
from inloop.spectra import (
    analytic_power_spectrum,
    fit_lorentzian_pair,
    numerical_power_spectrum,
    total_flux,
)
from inloop.squeezed_bath import build_squeezed_generator, free_rates
from inloop.trajectories import TrajectoryConfig, fit_decay_rate, run_ensemble
from oracles import bloch_to_matrix

ETA, EPS = 0.8, 0.95
LAM = -ETA * EPS  # optimal feedback, g = -19
RECT = LoopFilter.rectangular(1.0)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_optimal_in_loop_squeezing():
    t0 = time.perf_counter()
    cfg = LoopConfig(g=-19.0, eps=EPS, eta=ETA, filter=RECT)
    flat = float(in_loop_spectrum(cfg, 0.0))
    exact_ok = abs(flat - 0.05) < 1e-12 and abs(flat - (1.0 - EPS)) < 1e-12

    rec = simulate_classical_loop(cfg, dt=0.02, duration=1e4, seed=11)
    omega, psd = welch_spectrum(rec.x_in, rec.dt, nperseg=4096)
    low = band_average(omega, psd, 0.0, 0.6)
    mc_ok = 0.04 < low < 0.06
    elapsed = time.perf_counter() - t0
    report(
        1,
        exact_ok and mc_ok and elapsed < 10.0,
        f"S_in(0) = {flat:.15f} (= 1 - eps to 1e-12), Monte Carlo low-band "
        f"PSD = {low:.4f} in [0.04, 0.06], runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_2_headline_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        eta = rng.uniform(0.2, 1.0)
        eps = rng.uniform(0.2, 1.0)
        lam = rng.uniform(-eta + 1e-3, 3.0)
        gx = rates(lam, eta, eps).gamma_x
        s_in = squeezing_from_lambda(lam, eta, eps)
        worst = max(worst, abs(gx - rates_from_squeezing(s_in, eta)))
        worst = max(worst, abs(gx - free_rates(eta, s_in).gamma_x))
    report(
        2,
        worst < 1e-12,
        f"gamma_x == [(1-eta) + eta S]/2 == free-bath gamma_x at L = S over "
        f"1000 random draws, worst deviation {worst:.2e} < 1e-12",
    )


def test_criterion_3_comparison_figure_reproduction():
    t0 = time.perf_counter()
    rs_in = rates(LAM, ETA, EPS)
    rs_fr = free_rates(ETA, 1.0 - EPS)
    rates_ok = (
        abs(rs_in.gamma_x - 0.12) < 1e-12
        and rs_in.gamma_y == 0.5
        and abs(rs_in.gamma_z - 0.62) < 1e-12
        and abs(rs_in.C - 0.24) < 1e-12
        and abs(rs_fr.gamma_x - 0.12) < 1e-12
        and abs(rs_fr.gamma_y - 8.1) < 1e-12
        and abs(rs_fr.gamma_z - 8.22) < 1e-12
        and rs_fr.C == 1.0
    )

    grid = np.linspace(-3.0, 3.0, 1201)
    ana_in = analytic_power_spectrum(rs_in, ETA, grid)
    ana_fr = analytic_power_spectrum(rs_fr, ETA, grid)
    gen_in = build_generator(LAM, ETA, EPS)
    gen_fr = build_squeezed_generator(ETA, 1.0 - EPS)
    tau_max, dtau = 200.0 / 0.12, 1e-3
    num_in = numerical_power_spectrum(gen_in, ETA, grid, tau_max, dtau)
    num_fr = numerical_power_spectrum(gen_fr, ETA, grid, tau_max, dtau)
    err_in = float(np.max(np.abs(num_in.values - ana_in.values)))
    err_fr = float(np.max(np.abs(num_fr.values - ana_fr.values)))
    numeric_ok = err_in < 1e-4 and err_fr < 1e-4

    fit_in = fit_lorentzian_pair(num_in)
    fit_fr = fit_lorentzian_pair(num_fr)
    fits_ok = (
        abs(fit_in["narrow"] - 0.12) / 0.12 < 0.01
        and abs(fit_fr["narrow"] - 0.12) / 0.12 < 0.01
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        rates_ok and numeric_ok and fits_ok and elapsed < 5.0,
        f"rates (0.12, 0.5, 0.62, 0.24) and (0.12, 8.1, 8.22, 1), narrow fits "
        f"{fit_in['narrow']:.5f}/{fit_fr['narrow']:.5f} within 1% of 0.12, "
        f"numerical-vs-analytic max errors {err_in:.1e}/{err_fr:.1e} < 1e-4, "
        f"runtime {elapsed:.1f}s < 5s",
    )


def test_criterion_4_liouvillian_cross_check():
    rng = np.random.default_rng(4096)
    worst_eig = 0.0
    worst_ss = 0.0
    for _ in range(1000):
        eta = rng.uniform(0.2, 1.0)
        eps = rng.uniform(0.2, 1.0)
        lam = rng.uniform(-eta + 1e-3, 3.0)
        gen = build_generator(lam, eta, eps)
        rs = rates(lam, eta, eps)
        evals = np.sort(np.linalg.eigvals(gen.drift).real)
        target = np.sort([-rs.gamma_x, -rs.gamma_y, -rs.gamma_z])
        worst_eig = max(worst_eig, float(np.max(np.abs(evals - target))))
        z_ratio = -rs.C / rs.gamma_z
        z_closed = -1.0 + lam * lam / (2.0 * eta * eps * (1.0 + lam) + lam * lam)
        worst_ss = max(worst_ss, abs(z_ratio - z_closed))
        worst_ss = max(worst_ss, abs(rates(lam, eta, eps).steady_state().z - z_ratio))
    fig2_z = rates(LAM, ETA, EPS).steady_state().z
    fig2_ok = abs(fig2_z + 0.3870967741935484) < 1e-12
    report(
        4,
        worst_eig < 1e-10 and worst_ss < 1e-12 and fig2_ok,
        f"drift eigenvalues match rates over 1000 draws (worst {worst_eig:.2e} "
        f"< 1e-10); steady-state forms agree (worst {worst_ss:.2e} < 1e-12); "
        f"z_ss = {fig2_z:.10f} at the reference point",
    )


def test_criterion_5_trajectory_markov_convergence():
    # The rectangular window cannot be used at (tau = 1e-3, dt = 1e-4): with
    # m = tau/dt = 10 taps its discretized loop recursion is unstable at
    # g = -19 (Dirichlet sidelobe crossing |g|/m = 1.9 > 1), so the stated
    # (tau, dt) pair is run with the single-pole filter, whose recursion
    # pole r + (1-r)g stays inside the unit circle.  The tau = 0.1 deviation
    # run uses the rectangular filter (true dead time) and a larger ensemble
    # (the criterion pins n only for the tau = 1e-3 runs).
    t0 = time.perf_counter()
    sp = LoopFilter.single_pole(1e-3)
    lc = LoopConfig(g=-19.0, eps=EPS, eta=ETA, filter=sp)

    cfg_x = TrajectoryConfig(
        loop=lc, dt=1e-4, duration=3.0, n_traj=10000, seed=20260808,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
    )
    fit_x = fit_decay_rate(run_ensemble(cfg_x), "x")
    gx_ok = abs(fit_x.rate - 0.12) / 0.12 < 0.10

    cfg_y = TrajectoryConfig(
        loop=lc, dt=1e-4, duration=3.0, n_traj=10000, seed=20260809,
        initial_state=AtomState(0.0, 1.0, 0.0), phi_guard=2e4,
    )
    fit_y = fit_decay_rate(run_ensemble(cfg_y), "y")
    gy_ok = abs(fit_y.rate - 0.5) / 0.5 < 0.10

    lc_slow = LoopConfig(g=-19.0, eps=EPS, eta=ETA, filter=LoopFilter.rectangular(0.1))
    cfg_slow = TrajectoryConfig(
        loop=lc_slow, dt=1e-3, duration=3.0, n_traj=30000, seed=42,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
    )
    fit_slow = fit_decay_rate(run_ensemble(cfg_slow), "x")
    sigmas = abs(fit_slow.rate - 0.12) / fit_slow.stderr
    slow_ok = sigmas > 2.0

    elapsed = time.perf_counter() - t0
    report(
        5,
        gx_ok and gy_ok and slow_ok and elapsed < 600.0,
        f"gamma_x = {fit_x.rate:.4f} +- {fit_x.stderr:.4f} (within 10% of 0.12), "
        f"gamma_y = {fit_y.rate:.4f} +- {fit_y.stderr:.4f} (within 10% of 0.5), "
        f"tau = 0.1 estimate {fit_slow.rate:.4f} deviates from 0.12 by "
        f"{sigmas:.1f} sigma > 2, runtime {elapsed:.0f}s < 600s",
    )


def test_criterion_6_spectrum_normalization():
    core = np.linspace(-12.0, 12.0, 9601)
    tail = np.logspace(np.log10(12.0), 5.0, 4000)[1:]
    wide = np.concatenate([-tail[::-1], core, tail])
    results = []
    for name, rs in (("inloop", rates(LAM, ETA, EPS)), ("free", free_rates(ETA, 0.05))):
        vals = analytic_power_spectrum(rs, ETA, wide).values
        est = float(np.trapezoid(vals, wide))
        want = total_flux(rs, ETA)
        results.append((name, est, want, abs(est - want) / want))
    ok = all(rel < 1e-3 for _, _, _, rel in results)
    detail = "; ".join(
        f"{name}: integral {est:.6e} vs closed form {want:.6e} (rel {rel:.1e} < 1e-3)"
        for name, est, want, rel in results
    )
    report(6, ok, detail)


def test_criterion_7_positivity_and_trace_suite():
    rng = np.random.default_rng(777)
    # 1e5 random exact-propagation steps
    worst_purity = 0.0
    for _ in range(100):
        eta = rng.uniform(0.2, 1.0)
        eps = rng.uniform(0.2, 1.0)
        lam = rng.uniform(-eta + 1e-3, 3.0)
        gen = build_generator(lam, eta, eps)
        r = rng.standard_normal((1000, 3))
        r *= (rng.uniform(0, 1, 1000) / np.linalg.norm(r, axis=1))[:, None]
        ts = rng.uniform(0.0, 5.0, 1000)
        rs = gen.rates
        zss = rs.steady_state().z
        out = np.empty_like(r)
        out[:, 0] = r[:, 0] * np.exp(-rs.gamma_x * ts)
        out[:, 1] = r[:, 1] * np.exp(-rs.gamma_y * ts)
        out[:, 2] = zss + (r[:, 2] - zss) * np.exp(-rs.gamma_z * ts)
        worst_purity = max(worst_purity, float(np.max(np.sum(out**2, axis=1))))
    purity_ok = worst_purity <= 1.0 + 1e-9

    # trace and Hermiticity on a sample of propagated states
    s = AtomState.from_bloch(
        propagate(build_generator(LAM, ETA, EPS).rates, AtomState(0.6, 0.3, 0.2), 0.7)
    )
    rho = bloch_to_matrix(s)
    trace_ok = abs(np.trace(rho) - 1.0) < 1e-14 and np.max(np.abs(rho - rho.conj().T)) < 1e-14

    # Choi positivity of small-time maps, both models
    worst_choi = 0.0
    for _ in range(100):
        eta = rng.uniform(0.2, 1.0)
        eps = rng.uniform(0.2, 1.0)
        lam = rng.uniform(-eta + 1e-3, 3.0)
        gen = build_generator(lam, eta, eps)
        level = np.exp(rng.uniform(np.log(0.02), np.log(10.0)))
        gen_f = build_squeezed_generator(eta, level)
        for dt in (1e-3, 1e-2, 1e-1):
            worst_choi = min(worst_choi, smallest_choi_eigenvalue(gen.drift, gen.constant, dt))
            worst_choi = min(
                worst_choi, smallest_choi_eigenvalue(gen_f.drift, gen_f.constant, dt)
            )
    choi_ok = worst_choi > -1e-10

    # 100 full stochastic trajectories keep the purity bound at every
    # recorded step
    lc = LoopConfig(g=-19.0, eps=EPS, eta=ETA, filter=LoopFilter.single_pole(1e-2))
    cfg = TrajectoryConfig(
        loop=lc, dt=1e-3, duration=2.0, n_traj=100, seed=31,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4, record_stride=1,
    )
    res = run_ensemble(cfg)
    traj_purity = float(np.max(np.sum(res.records**2, axis=2)))
    traj_ok = traj_purity <= 1.0 + 1e-6

    report(
        7,
        purity_ok and trace_ok and choi_ok and traj_ok,
        f"exact-step purity max {worst_purity:.12f} <= 1 + 1e-9; trace/Hermiticity "
        f"exact; min Choi eigenvalue {worst_choi:.1e} > -1e-10; trajectory purity "
        f"max {traj_purity:.8f} <= 1 + 1e-6 over 100 runs",
    )
