"""Conditioned trajectories: stepper contracts, feedback drive, determinism,
trajectory slices, martingale property, purity bounds, decay-rate fits and
the current PSD."""

import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from inloop.bloch import AtomState
from inloop.errors import InstabilityError, ParameterError
from inloop.feedback import build_generator, propagate
from inloop.loop import (
    LoopConfig,
    LoopFilter,
    assert_discrete_stable,
    discrete_loop_transfer,
    loop_recursion_poles,
    simulate_classical_loop,
)
from inloop.trajectories import (
    MIN_SLICE,
    NOISE_BLOCK,
    EnsembleResult,
    TrajectoryConfig,
    _plan,
    _raise_first_failure,
    _run_cuts,
    _run_slice,
    ensemble_current_psd,
    fit_decay_rate,
    run_ensemble,
)
from oracles import (
    feedback_drive,
    mean_current,
    single_pole_hybrid_rates,
    step_conditioned,
    two_sided_welch,
)


def make_config(**kw):
    defaults = dict(
        loop=LoopConfig(g=0.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1e-2)),
        dt=1e-3,
        duration=1.0,
        n_traj=1000,
        seed=1,
        initial_state=AtomState(1.0, 0.0, 0.0),
    )
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


# -- single step -------------------------------------------------------------


def test_step_ground_state_is_dark():
    s = step_conditioned(AtomState.ground(), phi=0.0, dw=0.0, dt=1e-3, eta=0.8, eps=0.95)
    assert np.allclose(s.bloch, [0.0, 0.0, -1.0], atol=1e-15)


def kraus_closed_form(s, dy, dt, eta, eps):
    """Bloch form of the Kraus step with b = sqrt(eta eps) dy, p = (1 + z)/2
    and a = 1 - dt/2, written out independently of the engine's grouping."""
    b, p, a = np.sqrt(eta * eps) * dy, 0.5 * (1.0 + s.z), 1.0 - 0.5 * dt
    q = (1.0 - p) + p * (b * b + (1.0 - eta * eps) * dt) + b * s.x
    t = a * a * p + q
    return a * (s.x + b * (1.0 + s.z)) / t, a * s.y / t, (a * a * p - q) / t


def test_step_drift_only_damps_x():
    # at dW = 0 the record still conditions on its mean, dy = sqrt(eta eps) x dt
    dt, eta, eps = 1e-3, 0.8, 0.95
    s0 = AtomState(1.0, 0.0, 0.0)
    s = step_conditioned(s0, 0.0, 0.0, dt, eta, eps)
    x_e, _, z_e = kraus_closed_form(s0, np.sqrt(eta * eps) * dt, dt, eta, eps)
    assert abs(s.x - x_e) < 1e-15 and abs(s.z - z_e) < 1e-15
    assert s.y == 0.0
    assert 1.0 - 0.5 * dt < s.x < 1.0


def test_step_rotation_matches_feedback_hamiltonian():
    # Kraus step first (x = 0, so dy = 0), then the exact rotation about y
    dt, phi, eta, eps = 1e-3, 3.0, 0.8, 0.95
    s = step_conditioned(AtomState(0.0, 1.0, 0.0), phi=phi, dw=0.0, dt=dt, eta=eta, eps=eps)
    theta = np.sqrt(eta) * phi * dt
    x_e, y_e, z_e = kraus_closed_form(AtomState(0.0, 1.0, 0.0), 0.0, dt, eta, eps)
    assert abs(s.y - y_e) < 1e-15
    assert abs(s.x - (x_e * np.cos(theta) + z_e * np.sin(theta))) < 1e-15
    assert abs(s.z - (-x_e * np.sin(theta) + z_e * np.cos(theta))) < 1e-15


def test_mean_current_examples():
    assert mean_current(AtomState.ground(), 0.0, 0.8, 0.95) == 0.0
    assert abs(mean_current(AtomState(1, 0, 0), 0.0, 0.8, 0.95) - np.sqrt(0.76)) < 1e-15
    assert abs(mean_current(AtomState(0, 0, -1), 1.0, 0.8, 0.95) - np.sqrt(0.95)) < 1e-15


# -- feedback drive ----------------------------------------------------------


def test_feedback_drive_zero_gain():
    filt = LoopFilter.rectangular(0.1)
    hist = np.random.default_rng(0).standard_normal(100)
    assert feedback_drive(hist, filt, 0.0, 0.95, 1e-3) == 0.0


def test_feedback_drive_constant_history():
    filt = LoopFilter.rectangular(0.1)
    hist = np.ones(200)
    phi = feedback_drive(hist, filt, -19.0, 0.95, 1e-3)
    assert abs(phi - (-19.0 / np.sqrt(0.95))) < 1e-12


def test_feedback_drive_impulse_traces_filter():
    # an impulse at lag j reads off the j-th quadrature weight
    filt = LoopFilter.exponential(0.1, 0.03)
    dt = 1e-3
    w = filt.discretize(dt)
    for lag in (1, 20, 99):
        hist = np.zeros(100)
        hist[-lag] = 1.0
        phi = feedback_drive(hist, filt, 2.0, 0.81, dt)
        assert abs(phi - 2.0 / 0.9 * w[lag - 1]) < 1e-14


def test_feedback_drive_insufficient_history():
    filt = LoopFilter.rectangular(0.1)
    with pytest.raises(ParameterError):
        feedback_drive(np.ones(10), filt, 1.0, 0.9, 1e-3)


def test_engine_drive_matches_feedback_drive():
    cfg = make_config(
        loop=LoopConfig(g=-2.0, eps=0.9, eta=0.7, filter=LoopFilter.single_pole(5e-3)),
        dt=5e-4,
        duration=0.1,
        n_traj=3,
        seed=8,
        record_current=True,
        record_drive=True,
        phi_guard=1e5,
    )
    res = run_ensemble(cfg)
    filt = cfg.loop.filter
    m_warm = int(round(filt.tau / cfg.dt))
    for i in range(3):
        for k in (m_warm, m_warm + 7, res.n_steps - 1):
            expect = feedback_drive(res.currents[i, :k], filt, -2.0, 0.9, cfg.dt)
            assert abs(res.drives[i, k] - expect) < 1e-10
    # warm-up holds the drive at zero
    assert np.all(res.drives[:, :m_warm] == 0.0)


# -- ensembles ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ParameterError):
        make_config(dt=2e-3).validate()  # dt > tau/10
    with pytest.raises(ParameterError):
        make_config(
            loop=LoopConfig(g=0.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1.0)),
            dt=2e-2,
        ).validate()  # dt > 1e-2
    with pytest.raises(ParameterError):
        make_config(n_traj=0).validate()
    with pytest.raises(ParameterError):
        make_config(initial_state=AtomState(1.0, 1.0, 1.0)).validate()
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        make_config(seed=-1).validate()


# A filter of each kind with the scale whose tenth bounds the step: tau, or
# 4 time_constant where that is shorter (not at the default tau/4).
STEP_RULE_FILTERS = {
    "rectangular": (LoopFilter.rectangular(0.05), 0.05),
    "exponential": (LoopFilter.exponential(0.05), 0.05),
    "exponential_short_time_constant": (LoopFilter.exponential(0.05, 2e-3), 8e-3),
    "single_pole": (LoopFilter.single_pole(0.05), 0.05),
    "sampled": (LoopFilter.from_samples(0.05, np.exp(-np.linspace(0.0, 1.0, 7))), 0.05),
}


@pytest.mark.parametrize("factor", [1.0, 1.01], ids=["at-bound", "beyond-bound"])
@pytest.mark.parametrize("case", STEP_RULE_FILTERS)
def test_every_discretized_loop_applies_one_step_rule(case, factor):
    # each entry point that steps or discretizes a loop accepts the step at
    # a tenth of the filter's scale and rejects it 1 % beyond, with one message
    filt, scale = STEP_RULE_FILTERS[case]
    dt = scale / 10.0 * factor
    loop = LoopConfig(g=-0.5, eps=0.95, eta=0.8, filter=filt)
    cfg = make_config(loop=loop, dt=dt, duration=20 * dt, n_traj=2)
    entries = {
        "validate": cfg.validate,
        "run_ensemble": lambda: run_ensemble(cfg),
        "simulate_classical_loop": lambda: simulate_classical_loop(loop, dt, 20 * dt, seed=1),
        "discretize": lambda: filt.discretize(dt),
        "assert_discrete_stable": lambda: assert_discrete_stable(filt, loop.g, dt),
        "loop_recursion_poles": lambda: loop_recursion_poles(loop, dt),
        "discrete_loop_transfer": lambda: discrete_loop_transfer(filt, dt, [1.0]),
    }
    verdicts = {}
    for name, call in entries.items():
        try:
            call()
        except ParameterError as exc:
            verdicts[name] = str(exc)
        else:
            verdicts[name] = "accepted"
    message = (
        f"dt = {dt} must be at most {scale / 10.0:.3g}, a tenth of the {filt.kind} filter's "
        f"scale {scale:.3g}, to resolve the loop filter"
    )
    assert verdicts == dict.fromkeys(entries, "accepted" if factor == 1.0 else message)


@pytest.mark.parametrize(
    "field, value",
    [("n_traj", 10.0), ("n_traj", True), ("seed", 1.0), ("seed", None), ("record_stride", 2.5),
     ("record_stride", 0)],
)
def test_config_rejects_non_integer_counts(field, value):
    # a count that is not an integer is a domain error, whatever its type
    with pytest.raises(ParameterError, match=f"{field} must be a (positive|non-negative) integer"):
        make_config(**{field: value}).validate()
    make_config(n_traj=np.int64(3), seed=np.uint32(5), record_stride=np.int32(2)).validate()


@pytest.mark.parametrize("guard", [0.0, -1.0, np.inf, np.nan])
def test_config_rejects_nonpositive_or_nonfinite_phi_guard(guard):
    # an infinite guard lets an overflowing drive turn states NaN
    with pytest.raises(ParameterError, match="phi_guard must be positive and finite"):
        make_config(phi_guard=guard).validate()
    with pytest.raises(ParameterError, match="phi_guard"):
        run_ensemble(make_config(phi_guard=guard, duration=0.01, n_traj=2))


def test_rejects_discretely_unstable_loop():
    cfg = make_config(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1e-3)),
        dt=1e-4,
        duration=0.05,
        n_traj=4,
    )
    with pytest.raises(InstabilityError):
        run_ensemble(cfg)


def test_phi_guard_aborts():
    cfg = make_config(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.single_pole(1e-3)),
        dt=1e-4,
        duration=0.05,
        n_traj=8,
        phi_guard=1.0,
    )
    with pytest.raises(InstabilityError):
        run_ensemble(cfg)


@pytest.mark.parametrize("n", [1, 7, 600])
def test_run_discretizes_once(n, monkeypatch):
    # the weights assert_discrete_stable checks are the ones the engine runs
    calls = []
    discretize = LoopFilter.discretize
    monkeypatch.setattr(
        LoopFilter, "discretize", lambda f, dt: calls.append(dt) or discretize(f, dt)
    )
    run_ensemble(make_config(n_traj=n, duration=0.02))
    assert calls == [1e-3]


def test_ensemble_bitwise_deterministic():
    cfg = make_config(duration=0.3, n_traj=64, seed=33)
    a, b = run_ensemble(cfg), run_ensemble(cfg)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.records, b.records)


@pytest.mark.parametrize("n", [2, 7, 300, 2 * MIN_SLICE + 37])
def test_ensemble_reduction_is_the_explicit_row_sum(n):
    # 2 * MIN_SLICE + 37 runs as forked slices on two or more CPUs
    res = run_ensemble(make_config(duration=0.2, n_traj=n, seed=21))
    records = res.records
    mean = records.sum(axis=0) / n
    stderr = np.sqrt(np.square(records - mean).sum(axis=0) / (n - 1) / n)
    assert res.mean.tobytes() == mean.tobytes()
    assert res.stderr.tobytes() == stderr.tobytes()


def test_ensemble_member_equals_single_run():
    cfg = make_config(
        loop=LoopConfig(g=-3.0, eps=0.9, eta=0.8, filter=LoopFilter.single_pole(1e-2)),
        duration=0.3,
        n_traj=6,
        seed=77,
        phi_guard=1e5,
    )
    multi = run_ensemble(cfg)
    for i in range(cfg.n_traj):
        single = run_ensemble(
            TrajectoryConfig(
                loop=cfg.loop,
                dt=cfg.dt,
                duration=cfg.duration,
                n_traj=1,
                seed=cfg.seed ^ i,
                initial_state=cfg.initial_state,
                phi_guard=cfg.phi_guard,
            )
        )
        assert np.allclose(single.records[0], multi.records[i], atol=1e-14, rtol=0.0)


def test_overshoot_kick_stays_in_the_ball():
    # z = 0.99 kicked by dW = 5 at eta = eps = 1, where an Euler-Maruyama
    # step would leave the sphere by O(dW^2): the Kraus step keeps it in the
    # ball, in the oracle and in a one-trajectory engine run whose first
    # draw is scaled to the same kick
    dt, s0 = 1e-3, AtomState(0.0, 0.0, 0.99)
    cfg = make_config(
        loop=LoopConfig(g=0.0, eps=1.0, eta=1.0, filter=LoopFilter.rectangular(1e-2)),
        duration=0.01, n_traj=1, seed=3, initial_state=s0, record_stride=1,
    )
    draw = REAL_RNG(cfg.seed).standard_normal()
    factor = 5.0 / (draw * np.sqrt(dt))
    with spiked_streams(cfg.seed, [(0, 0, factor)]):
        res = run_ensemble(cfg)
    s = step_conditioned(s0, 0.0, draw * factor * np.sqrt(dt), dt, 1.0, 1.0)
    assert s.purity <= 1.0
    np.testing.assert_allclose(res.records[0, 1], s.bloch, rtol=0.0, atol=1e-14)
    assert np.max(np.sum(res.records[0] ** 2, axis=1)) <= 1.0


def test_engine_matches_step_conditioned():
    # drive a short open-loop trajectory through both the vectorized engine
    # and the scalar stepper with the same noise stream
    cfg = make_config(duration=0.05, n_traj=1, seed=5, record_stride=1, record_current=True)
    res = run_ensemble(cfg)
    rng = np.random.default_rng(5 ^ 0)
    dws = rng.standard_normal(res.n_steps) * np.sqrt(cfg.dt)
    s = cfg.initial_state
    for k in range(res.n_steps):
        s = step_conditioned(s, 0.0, dws[k], cfg.dt, 0.8, 0.95)
        assert np.allclose(res.records[0, k + 1], s.bloch, atol=1e-13)


SWEEP_SAMPLES = np.exp(-np.linspace(0.0, 5e-3, 7) / 1.25e-3)


@pytest.mark.parametrize(
    "filt, g, dt, duration",
    [
        (LoopFilter.rectangular(1e-2), -3.0, 1e-3, 0.3),  # uniform weights
        (LoopFilter.single_pole(5e-3), -3.0, 5e-4, 0.3),  # geometric weights
        (LoopFilter.from_samples(5e-3, SWEEP_SAMPLES), -19.0, 1e-4, 0.06),  # general
    ],
    ids=["uniform", "geometric", "general"],
)
def test_closed_loop_engine_matches_scalar_oracle(filt, g, dt, duration):
    # every filter-evaluation mode of the engine against step_conditioned +
    # feedback_drive driven by the same per-trajectory noise streams
    eta, eps = 0.8, 0.95
    cfg = make_config(
        loop=LoopConfig(g=g, eps=eps, eta=eta, filter=filt),
        dt=dt, duration=duration, n_traj=3, seed=42,
        initial_state=AtomState(0.6, -0.3, 0.5), record_stride=1,
        record_current=True, record_drive=True, phi_guard=1e5,
    )
    res = run_ensemble(cfg)
    m_warm = int(round(filt.tau / dt))
    for i in range(cfg.n_traj):
        dws = np.random.default_rng(cfg.seed ^ i).standard_normal(res.n_steps) * np.sqrt(dt)
        s = cfg.initial_state
        states, currents, drives = [s.bloch], [], []
        for k in range(res.n_steps):
            phi = feedback_drive(currents, filt, g, eps, dt) if k >= m_warm else 0.0
            currents.append(mean_current(s, phi, eta, eps) + dws[k] / dt)
            drives.append(phi)
            s = step_conditioned(s, phi, dws[k], dt, eta, eps)
            states.append(s.bloch)
        np.testing.assert_allclose(res.records[i], states, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.currents[i], currents, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.drives[i], drives, rtol=1e-12, atol=1e-12)


def scalar_oracle_run(cfg, i, n_steps):
    """States, currents and drives of trajectory i by step_conditioned and
    feedback_drive, driven by its engine noise stream."""
    loop, dt = cfg.loop, cfg.dt
    dws = np.random.default_rng(cfg.seed ^ i).standard_normal(n_steps) * np.sqrt(dt)
    m_warm = int(round(loop.filter.tau / dt))
    s = cfg.initial_state
    states, currents, drives = [s.bloch], [], []
    for k in range(n_steps):
        phi = feedback_drive(currents, loop.filter, loop.g, loop.eps, dt) if k >= m_warm else 0.0
        currents.append(mean_current(s, phi, loop.eta, loop.eps) + dws[k] / dt)
        drives.append(phi)
        s = step_conditioned(s, phi, dws[k], dt, loop.eta, loop.eps)
        states.append(s.bloch)
    return np.array(states), currents, drives


@pytest.mark.parametrize(
    "filt, g, dt",
    [
        (LoopFilter.rectangular(1e-2), -3.0, 1e-3),  # uniform weights, 10 taps
        (LoopFilter.single_pole(5e-3), -3.0, 5e-4),  # geometric weights, 230 taps
        (LoopFilter.from_samples(5e-3, SWEEP_SAMPLES), -19.0, 1e-4),  # general, 50 taps
    ],
    ids=["uniform", "geometric", "general"],
)
def test_strided_records_over_several_blocks_match_scalar_oracle(filt, g, dt):
    # more than three noise blocks with a record stride that divides neither
    # the block nor the run: a record divides a state carried undivided for
    # up to 36 steps, and current chunks cross block ends
    n_steps = 3 * NOISE_BLOCK + 77
    cfg = make_config(
        loop=LoopConfig(g=g, eps=0.95, eta=0.8, filter=filt),
        dt=dt, duration=n_steps * dt, n_traj=2, seed=43,
        initial_state=AtomState(0.6, -0.3, 0.5), record_stride=37,
        record_current=True, record_drive=True, phi_guard=1e5,
    )
    res = run_ensemble(cfg)
    rec_steps = _plan(cfg).rec_steps
    assert res.n_steps == n_steps and len(rec_steps) == n_steps // 37 + 2
    for i in range(cfg.n_traj):
        states, currents, drives = scalar_oracle_run(cfg, i, n_steps)
        np.testing.assert_allclose(res.records[i], states[rec_steps], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.currents[i], currents, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(res.drives[i], drives, rtol=1e-12, atol=1e-12)


def test_states_divided_only_at_block_ends_stay_in_the_ball():
    # the longest step, a strong loop, one kick of 1e3 standard deviations
    # and a stride longer than the run, so that between its first and last
    # step the state is divided by its trace only at block ends.  Over these
    # 3,500 lifetimes the undivided trace would grow past the float range.
    cfg = make_config(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.single_pole(0.1)),
        dt=1e-2, duration=3500.0, n_traj=2, seed=29, initial_state=AtomState(0.6, 0.5, -0.3),
        record_stride=10**6, record_current=True, record_drive=True, phi_guard=1e6,
    )
    with warnings.catch_warnings(), spiked_streams(cfg.seed, [(1, NOISE_BLOCK + 100, 1e3)]):
        warnings.simplefilter("error", RuntimeWarning)
        res = run_ensemble(cfg)
    assert res.records.shape[1] == 2
    assert np.isfinite(res.records).all()
    assert np.max(np.sum(res.records**2, axis=2)) <= 1.0
    assert np.isfinite(res.currents).all() and np.isfinite(res.drives).all()
    assert np.abs(res.drives).max() > 1e3  # the kick reached the drive


# -- trajectory slices -------------------------------------------------------

WIDE = 2 * MIN_SLICE + 37
ODD_CUTS = [0, 1, 7, 64, 300, WIDE]
TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(__file__).resolve().parents[1] / "src")
REAL_RNG = np.random.default_rng


class SpikedGenerator:
    """A generator whose draw at step k is multiplied by f, for each (k, f)."""

    def __init__(self, rng, spikes):
        self.rng, self.spikes, self.pos = rng, spikes, 0

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        for k, f in self.spikes:
            if self.pos <= k < self.pos + out.size:
                out[k - self.pos] *= f
        self.pos += out.size
        return out


def spiked_streams(seed, spikes):
    """Stand-in for np.random.default_rng: in an ensemble seeded `seed`,
    trajectory i draws from its own stream with the step-k draw scaled by f
    for each (i, k, f) in `spikes`."""

    def make(stream_seed):
        mine = [(k, f) for i, k, f in spikes if seed ^ i == stream_seed]
        rng = REAL_RNG(stream_seed)
        return SpikedGenerator(rng, mine) if mine else rng

    return mock.patch.object(np.random, "default_rng", make)


def slice_config(filt, duration=0.06, phi_guard=2e4, **kw):
    return make_config(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=filt),
        dt=1e-4, duration=duration, n_traj=WIDE, seed=12345, phi_guard=phi_guard, **kw,
    )


UNIFORM, GEOMETRIC = LoopFilter.rectangular(1e-2), LoopFilter.single_pole(1e-3)
GROUND = AtomState(0.0, 0.0, -1.0)

# Runs that fail in several of the ODD_CUTS slices: (config, spikes, whether
# every failing slice fails at the same step).  A ground-state trajectory
# stays exactly in the ground state until the feedback starts (step 100 of
# the uniform filter, step 10 of the geometric one), so a warm-up spike trips
# the phi guard at that step with a peak that grows with the spike; a later
# spike reaches the drive through the current and trips it one step later.
SPREAD_SPIKES = [(WIDE - 1, 5, 1e4), (3, 150, 1e4), (100, 180, 1e4)]
SLICE_FAILURES = {
    "guard_at_different_steps": (
        slice_config(UNIFORM, initial_state=GROUND, phi_guard=5e3), SPREAD_SPIKES, False),
    "guard_at_one_step_with_different_peaks": (
        slice_config(UNIFORM, initial_state=GROUND, phi_guard=5e3),
        [(3, 5, 1e4), (100, 10, 2e4), (WIDE - 1, 20, 3e4)], True),
    "geometric_different_steps": (
        slice_config(GEOMETRIC, initial_state=GROUND, phi_guard=5e3), SPREAD_SPIKES, False),
    "geometric_one_step_different_peaks": (
        slice_config(GEOMETRIC, initial_state=GROUND, phi_guard=5e3),
        [(3, 5, 1e4), (100, 6, 2e4), (WIDE - 1, 7, 3e4)], True),
}

RECORDED = dict(record_stride=7, record_current=True, record_drive=True)


def slice_case_digests():
    """SHA-256 of run_ensemble's outputs, or of its error's type and message,
    for every slicing case, on as many slices as the CPU affinity allows."""
    cases = {
        "uniform": (slice_config(UNIFORM, **RECORDED), []),
        "geometric": (slice_config(GEOMETRIC, **RECORDED), []),
    }
    cases.update({name: case[:2] for name, case in SLICE_FAILURES.items()})
    out = {}
    for name, (cfg, spikes) in cases.items():
        h = hashlib.sha256()
        try:
            with spiked_streams(cfg.seed, spikes):
                res = run_ensemble(cfg)
        except InstabilityError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
        else:
            for a in (res.mean, res.stderr, res.records, res.currents, res.drives):
                h.update(b"-" if a is None else a.tobytes())
        out[name] = h.hexdigest()
    return out


def assert_bitwise_equal(a, b):
    for name in ("mean", "stderr", "records", "currents", "drives"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("forked", [False, True], ids=["in_process", "forked"])
@pytest.mark.parametrize("filt", [UNIFORM, GEOMETRIC], ids=["uniform", "geometric"])
def test_slices_leave_every_output_bitwise_unchanged(filt, forked):
    # odd-width slices, run one after another or each in its own worker,
    # against the ensemble stepped as one
    cfg = slice_config(filt, **RECORDED)
    whole = _run_cuts(_plan(cfg), [0, WIDE], forked=False)
    assert_bitwise_equal(_run_cuts(_plan(cfg), ODD_CUTS, forked=forked), whole)
    assert_bitwise_equal(run_ensemble(cfg), whole)


@pytest.mark.parametrize("case", SLICE_FAILURES)
def test_slice_failures_merge_to_the_whole_ensemble_failure(case):
    cfg, spikes, same_step = SLICE_FAILURES[case]
    plan = _plan(cfg)
    with spiked_streams(cfg.seed, spikes):
        rows = np.empty((WIDE, len(plan.rec_steps), 3))
        failures = [f for f in (_run_slice(plan, rows, None, None, lo, hi)
                                for lo, hi in zip(ODD_CUTS, ODD_CUTS[1:])) if f is not None]
        with pytest.raises(InstabilityError) as whole:
            _run_cuts(plan, [0, WIDE], forked=False)
        for forked in (False, True):
            with pytest.raises(InstabilityError) as cut:
                _run_cuts(plan, ODD_CUTS, forked=forked)
            assert type(cut.value) is type(whole.value)
            assert str(cut.value) == str(whole.value)
    # the failures really are spread as the case says
    assert len(failures) == len(spikes)
    firsts = {step for step, _ in failures}
    if same_step:
        assert len(firsts) == 1 and len({peak for _, peak in failures}) == len(failures)
    else:
        assert len(firsts) == len(failures)


@pytest.mark.parametrize("forked", [False, True], ids=["one_slice", "forked"])
def test_stderr_is_bitwise_the_numpy_sample_variance(forked):
    cfg = slice_config(GEOMETRIC, duration=0.02)
    res = _run_cuts(_plan(cfg), ODD_CUTS if forked else [0, WIDE], forked=forked)
    expected = np.sqrt(res.records.var(axis=0, ddof=1) / WIDE)
    assert res.stderr.tobytes() == expected.tobytes()
    single = run_ensemble(replace(cfg, n_traj=1))
    assert np.isnan(single.stderr).all() and single.stderr.shape == single.mean.shape


# Steps (after, overflow) of two spikes in one trajectory of a 1,300-step
# run: the first trips the guard one step after it, the second, later in the
# same noise block, overflows the steps that run on after the trip.
BLOCK_TRIPS = {
    "mid_block": (NOISE_BLOCK + 250, NOISE_BLOCK + 400),
    "final_partial_block": (2 * NOISE_BLOCK + 100, 2 * NOISE_BLOCK + 200),
}


@pytest.mark.parametrize("forked", [False, True], ids=["one_slice", "forked"])
@pytest.mark.parametrize("case", BLOCK_TRIPS)
def test_block_guard_reports_the_first_trip_exactly(case, forked):
    cfg = slice_config(GEOMETRIC, duration=0.13, initial_state=GROUND, phi_guard=5e3)
    plan = _plan(cfg)
    assert plan.n_steps % NOISE_BLOCK != 0
    spike, overflow = BLOCK_TRIPS[case]
    i = 100  # a forked worker's trajectory in ODD_CUTS
    draw = REAL_RNG(cfg.seed ^ i).standard_normal(overflow + 1)[overflow]
    spikes = [(i, spike, 1e4), (i, overflow, 1e300 / abs(draw * np.sqrt(cfg.dt)))]
    # the first step over the guard in the drive record of a run without the
    # overflowing spike and with a guard it never meets
    with spiked_streams(cfg.seed, spikes[:1]):
        drives = run_ensemble(replace(cfg, phi_guard=1e300, record_drive=True)).drives
    peaks = np.abs(drives).max(axis=0)
    step = int(np.argmax(peaks > cfg.phi_guard))
    assert step == spike + 1
    with warnings.catch_warnings(), spiked_streams(cfg.seed, spikes):
        warnings.simplefilter("error", RuntimeWarning)
        if not forked:
            rows = np.empty((WIDE, len(plan.rec_steps), 3))
            assert _run_slice(plan, rows, None, None, 0, WIDE) == (step, peaks[step])
        with pytest.raises(InstabilityError) as exc:
            _run_cuts(plan, ODD_CUTS if forked else [0, WIDE], forked=forked)
    assert str(exc.value) == (
        f"feedback drive |Phi| = {peaks[step]:.3g} exceeded the guard "
        f"{cfg.phi_guard:.3g} at t = {step * cfg.dt:.4g}"
    )


def test_drive_record_is_zero_until_the_feedback_starts():
    # the rectangular filter of 600 steps starts the feedback inside the
    # second noise block
    cfg = make_config(
        loop=LoopConfig(g=-3.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(6e-2)),
        dt=1e-4, duration=0.15, n_traj=7, record_drive=True,
    )
    start = 600
    drives = run_ensemble(cfg).drives
    assert drives[:, :start].tobytes() == bytes(drives[:, :start].nbytes)
    assert np.all(drives[:, start:] != 0.0)
    open_loop = run_ensemble(replace(cfg, loop=replace(cfg.loop, g=0.0))).drives
    assert open_loop.tobytes() == bytes(open_loop.nbytes)


def test_first_failure_is_earliest_step_guard_first_then_largest_value():
    cfg = slice_config(UNIFORM)
    failures = [None, (13, 1e5), (12, 3e4), (30, 9e4), (12, 4e4)]
    with pytest.raises(InstabilityError, match=r"\|Phi\| = 4e\+04 exceeded .* at t = 0\.0012$"):
        _raise_first_failure(cfg, failures)
    _raise_first_failure(cfg, [None, None])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_run_matches_default_affinity_run():
    # a process pinned to one CPU runs every case as one slice; at default
    # affinity the same process forks workers when it has several CPUs
    code = (
        "import json, os, resource, sys\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "import test_trajectories as t\n"
        "default = t.slice_case_digests()\n"
        "forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > 0\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "print(json.dumps(dict(default=default, pinned=t.slice_case_digests(), forked=forked)))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["pinned"] == out["default"]
    assert out["forked"] == (len(os.sched_getaffinity(0)) > 1)


def _ensemble_in_pool_worker():
    res = run_ensemble(slice_config(GEOMETRIC))
    return res.mean, res.records, resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime


def test_daemonic_pool_worker_forks_its_slices():
    # only multiprocessing forbids a daemonic process children: its own
    # forks run the slices
    expected = run_ensemble(slice_config(GEOMETRIC))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        mean, records, child_utime = pool.apply_async(_ensemble_in_pool_worker).get(timeout=300)
    assert mean.tobytes() == expected.mean.tobytes()
    assert records.tobytes() == expected.records.tobytes()
    assert (child_utime > 0) == (len(os.sched_getaffinity(0)) > 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rng_failing_in(where, fail):
    """Stand-in for np.random.default_rng that calls `fail` in the test
    process (where="parent") or in its forked workers (where="worker")."""
    parent = os.getpid()

    def default_rng(seed):
        if (os.getpid() == parent) == (where == "parent"):
            fail()
        return REAL_RNG(seed)

    return mock.patch.object(np.random, "default_rng", default_rng)


def raise_value_error():
    raise ValueError("no stream here")


def test_dead_worker_raises_runtime_error():
    plan = _plan(slice_config(UNIFORM, duration=0.01))
    with rng_failing_in("worker", lambda: os._exit(1)):
        with pytest.raises(RuntimeError, match=r"^trajectory slice 1 \[300, 549\) failed: "
                                               r"its worker exited with status 1$"):
            _run_cuts(plan, [0, 300, WIDE], forked=True)
    assert_no_child_left()


def test_raising_worker_is_a_runtime_error_after_its_traceback(capfd):
    plan = _plan(slice_config(UNIFORM, duration=0.01))
    with rng_failing_in("worker", raise_value_error):
        with pytest.raises(RuntimeError, match=r"^trajectory slice 1 \[64, 549\) failed: "
                                               r"its worker exited with status 1$"):
            _run_cuts(plan, [0, 64, WIDE], forked=True)
    assert_no_child_left()
    err = capfd.readouterr().err
    assert "Traceback" in err and err.rstrip().endswith("ValueError: no stream here")


def test_raising_parent_slice_reaps_every_worker():
    plan = _plan(slice_config(UNIFORM, duration=0.01))
    with rng_failing_in("parent", raise_value_error):
        with pytest.raises(ValueError, match="no stream here"):
            _run_cuts(plan, [0, 7, 300, WIDE], forked=True)
    assert_no_child_left()


def test_fork_warning_of_a_multi_threaded_process_loses_no_worker():
    # Python 3.12+ warns in the parent, once the child runs, when a process
    # with other OS threads forks; here a stand-in fork warns as CPython does
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    cfg = slice_config(GEOMETRIC, duration=0.02)
    whole = _run_cuts(_plan(cfg), [0, WIDE], forked=False)
    with warnings.catch_warnings(), mock.patch.object(os, "fork", warning_fork):
        warnings.simplefilter("error", DeprecationWarning)
        assert_bitwise_equal(_run_cuts(_plan(cfg), ODD_CUTS, forked=True), whole)
    assert_no_child_left()


def test_open_loop_ensemble_matches_master_equation():
    # g = 0: conditioning alone must not shift the ensemble mean
    cfg = make_config(duration=1.0, n_traj=4000, seed=101, initial_state=AtomState(0.8, 0.0, 0.2))
    res = run_ensemble(cfg)
    gen = build_generator(0.0, 0.8, 0.95)
    exact = propagate(gen.rates, cfg.initial_state, res.times)
    for t_probe in (0.3, 0.6, 1.0):
        i = int(np.argmin(np.abs(res.times - t_probe)))
        for c in range(3):
            se = max(res.stderr[i, c], 1e-4)
            assert abs(res.mean[i, c] - exact[i, c]) < 3.5 * se


def test_martingale_property_various_efficiencies():
    # with the feedback severed the mean obeys the undriven master equation
    # for any (eta, eps)
    for eta, eps, seed in ((0.4, 0.55, 7), (1.0, 1.0, 8)):
        cfg = make_config(
            loop=LoopConfig(g=0.0, eps=eps, eta=eta, filter=LoopFilter.rectangular(1e-2)),
            duration=1.0,
            n_traj=3000,
            seed=seed,
            initial_state=AtomState(0.6, -0.3, 0.5),
        )
        res = run_ensemble(cfg)
        gen = build_generator(0.0, 0.8, 0.95)  # rates are (eta, eps)-independent at g=0
        exact = propagate(gen.rates, cfg.initial_state, res.times)
        i = int(np.argmin(np.abs(res.times - 1.0)))
        for c in range(3):
            se = max(res.stderr[i, c], 1e-4)
            assert abs(res.mean[i, c] - exact[i, c]) < 3.5 * se


def test_purity_bound_along_trajectories():
    cfg = make_config(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.single_pole(1e-2)),
        duration=1.0,
        n_traj=100,
        seed=11,
        phi_guard=2e4,
    )
    res = run_ensemble(cfg)
    purity = np.sum(res.records**2, axis=2)
    assert np.max(purity) <= 1.0 + 1e-6


def test_feedback_narrows_x_decay():
    # moderate-size check of the headline effect; the acceptance suite runs
    # the full-size version
    lc = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.single_pole(1e-3))
    cfg = TrajectoryConfig(
        loop=lc, dt=1e-4, duration=3.0, n_traj=2500, seed=71,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
    )
    fit = fit_decay_rate(run_ensemble(cfg), "x")
    assert abs(fit.rate - 0.12) < 0.02
    cfg_y = TrajectoryConfig(
        loop=lc, dt=1e-4, duration=3.0, n_traj=2500, seed=72,
        initial_state=AtomState(0.0, 1.0, 0.0), phi_guard=2e4,
    )
    fit_y = fit_decay_rate(run_ensemble(cfg_y), "y")
    assert abs(fit_y.rate - 0.5) < 0.04


def test_fit_decay_rate_on_clean_exponential():
    cfg = make_config(duration=3.0, n_traj=400, seed=3)
    res = run_ensemble(cfg)
    fit = fit_decay_rate(res, "x")
    assert abs(fit.rate - 0.5) < 0.05
    assert fit.stderr > 0.0
    with pytest.raises(ParameterError):
        fit_decay_rate(res, "x", window=(2.901, 2.915))


def _synthetic_result(x_records: np.ndarray, times: np.ndarray) -> EnsembleResult:
    """Ensemble result whose x records are given and whose y, z are zero."""
    records = np.zeros(x_records.shape + (3,))
    records[..., 0] = x_records
    return EnsembleResult(
        times=times, mean=records.mean(axis=0), stderr=np.zeros(records.shape[1:]),
        config=make_config(n_traj=x_records.shape[0]), n_steps=times.size - 1,
        records=records,
    )


def _ar1_decay_records(rng, n: int, times: np.ndarray, rho: float = 0.95) -> np.ndarray:
    """exp(-t/2) (1 + noise/2) with stationary unit-variance AR(1) noise."""
    noise = np.empty((n, times.size))
    noise[:, 0] = rng.standard_normal(n)
    kicks = np.sqrt(1.0 - rho * rho) * rng.standard_normal((n, times.size - 1))
    for k in range(1, times.size):
        noise[:, k] = rho * noise[:, k - 1] + kicks[:, k - 1]
    return np.exp(-0.5 * times) * (1.0 + 0.5 * noise)


def test_fit_stderr_matches_spread_of_independent_fits():
    # time-correlated noise: an error from per-time marginals alone would
    # miss the covariance across the window that the delta method keeps
    rng = np.random.default_rng(2024)
    times = np.linspace(0.0, 3.0, 301)
    fits = [fit_decay_rate(_synthetic_result(_ar1_decay_records(rng, 400, times), times), "x")
            for _ in range(200)]
    spread = np.std([f.rate for f in fits], ddof=1)
    assert abs(np.median([f.stderr for f in fits]) / spread - 1.0) < 0.15


def test_fit_rate_is_the_least_squares_slope():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 3.0, 301)
    results = [_synthetic_result(_ar1_decay_records(rng, 50, times), times) for _ in range(10)]
    results.append(run_ensemble(make_config(duration=3.0, n_traj=200, seed=5)))
    for res in results:
        for window in ((0.5, 3.0), (0.2, 1.7)):
            sel = (res.times >= window[0]) & (res.times <= window[1])
            slope = np.polyfit(res.times[sel], np.log(res.mean[sel, 0]), 1)[0]
            assert abs(fit_decay_rate(res, "x", window).rate + slope) < 1e-12


def test_fit_of_one_trajectory_has_nan_stderr_without_warning():
    times = np.linspace(0.0, 3.0, 301)
    res = _synthetic_result(np.exp(-0.5 * times)[None, :], times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_decay_rate(res, "x")
    assert abs(fit.rate - 0.5) < 1e-12
    assert np.isnan(fit.stderr)


def test_tau_convergence_to_markovian_rate():
    # the Markov limit is a limit: fitted gamma_x(tau) approaches 0.12 from
    # above as the loop memory shrinks.  Fixed dt = tau/40 keeps the
    # discretization bias common to all points; consecutive estimates may
    # fluctuate within their standard errors, hence the slack.
    taus = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    fits = []
    for tau, seed in zip(taus, (201, 202, 203, 204, 205)):
        lc = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(tau))
        cfg = TrajectoryConfig(
            loop=lc, dt=tau / 40.0, duration=3.0, n_traj=5000, seed=seed,
            initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
        )
        fits.append(fit_decay_rate(run_ensemble(cfg), "x"))
    rates = [f.rate for f in fits]
    errs = [f.stderr for f in fits]
    # monotone nonincreasing within noise
    for a, b, ea, eb in zip(rates, rates[1:], errs, errs[1:]):
        assert b <= a + 2.5 * np.hypot(ea, eb)
    # the slowest loop is visibly away from the limit point
    assert rates[0] > rates[-1]
    # and the fastest loop sits at the Markovian value
    assert abs(rates[-1] - 0.12) < 0.012


def test_single_pole_engine_matches_the_exact_hybrid_rates():
    # a target that does not depend on engine digests: the exact generator
    # of the atom and its single-pole drive.  At tau = 0.1 the warm-up
    # transients decay at (1 - g)/tau = 200, well before the fit window.
    eta, eps, g, tau = 0.8, 0.95, -19.0, 0.1
    gamma_x = single_pole_hybrid_rates(eta, eps, g, tau)[0]
    lc = LoopConfig(g=g, eps=eps, eta=eta, filter=LoopFilter.single_pole(tau))
    for component, seed, target in (("x", 2**16, gamma_x), ("y", 2**17, 0.5)):
        cfg = TrajectoryConfig(
            loop=lc, dt=1e-3, duration=3.0, n_traj=25_000, seed=seed,
            initial_state=AtomState(*(1.0 if c == component else 0.0 for c in "xyz")),
        )
        fit = fit_decay_rate(run_ensemble(cfg), component)
        assert abs(fit.rate - target) < 2.5 * fit.stderr, (component, fit, target)


@pytest.mark.parametrize("nperseg", [None, 3, 333, 20000])
@pytest.mark.parametrize("size", [10000, 9999])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_ensemble_current_psd_is_row_mean_of_two_sided_route(rows, size, nperseg):
    # one estimate over every segment of every row equals the mean of the
    # rows' scipy estimates; 20000 is clamped to the record length.  The
    # rows are stretches of the squeezed in-loop quadrature of
    # test_welch_spectrum_matches_two_sided_route.
    lc = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1.0))
    x = simulate_classical_loop(lc, dt=0.02, duration=0.02 * rows * size, seed=17).x_in
    cfg = make_config(n_traj=rows)
    res = EnsembleResult(
        times=np.zeros(1), mean=np.zeros((1, 3)), stderr=np.zeros((1, 3)), config=cfg,
        n_steps=size, records=np.zeros((rows, 1, 3)),
        currents=x[: rows * size].reshape(rows, size),
    )
    omega, psd = ensemble_current_psd(res, nperseg=nperseg)
    ref = [two_sided_welch(row, cfg.dt, nperseg=nperseg, min_segments=4) for row in res.currents]
    assert np.array_equal(omega, ref[0][0])
    np.testing.assert_allclose(psd, np.mean([p for _, p in ref], axis=0), rtol=1e-13, atol=0.0)


def test_current_psd_matches_suppressed_shot_noise():
    # in-loop current spectrum at 1 << omega << 1/tau follows the discrete
    # loop transfer: strong negative gain squashes the photocurrent noise
    lc = LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=LoopFilter.single_pole(1e-3))
    cfg = TrajectoryConfig(
        loop=lc, dt=1e-4, duration=3.0, n_traj=100, seed=55,
        initial_state=AtomState(0.0, 0.0, -1.0), phi_guard=2e4, record_current=True,
    )
    res = run_ensemble(cfg)
    omega, psd = ensemble_current_psd(res, nperseg=8192)
    sel = (omega >= 30.0) & (omega <= 300.0)
    h_d = discrete_loop_transfer(lc.filter, cfg.dt, omega[sel])
    ref = np.mean(1.0 / np.abs(1.0 - lc.g * h_d) ** 2)
    est = np.mean(psd[sel])
    assert est < 0.01  # far below shot noise
    assert abs(est - ref) / ref < 0.05
