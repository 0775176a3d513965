"""Conditioned stochastic evolution of the in-loop atom with explicit delay.

Each trajectory integrates the Ito stochastic master equation of homodyne
detection, in Bloch form, together with the classical feedback loop:

    ds = dt D[sigma] s + sqrt(eta eps) dW H[sigma] s - dt flow(H_fb) s
    H_fb(t) = sqrt(eta) Phi(t) sigma_y / 2
    Phi(t)  = (g / sqrt(eps)) int_0^tau h(s) I(t - s) ds
    I(t)    = sqrt(eta eps) x(t) + sqrt(eps) Phi(t) + dW/dt,

where Phi = 2 beta phi is the modulator drive scaled by the laser
amplitude (beta cancels from every observable, so neither beta nor phi is
represented separately) and dW is the Gaussian shot-noise increment of
variance dt.  The feedback drive is computed strictly from past current
samples (the filter is sampled at midpoints of the lagged steps), which is
both the physically mandated causal ordering and the discretization for
which the instantaneous-feedback limit tau -> 0 reproduces the Markovian
feedback master equation without Stratonovich corrections: the delay keeps
the fed-back noise independent of the concurrent measurement increment.

Scheme notes
------------
Damping and conditioning are one completely positive Kraus step
(P. Rouchon and J. F. Ralph, Phys. Rev. A 91, 012118 (2015)):

    rho <- [M rho M+ + (1 - eta eps) dt sigma rho sigma+] / trace
    M = I - sigma+ sigma dt/2 + sqrt(eta eps) sigma dy,
    dy = sqrt(eta eps) x dt + dW,

which agrees with the Ito equation to first order in dt (the second-order
term in sigma^2 vanishes for a two-level atom).  The map is linear before
the trace division, so the engine steps the unnormalized Bloch vector
(tr, X, Y, Z) of rho, as linear quantum trajectories do (H. M. Wiseman,
Quantum Semiclass. Opt. 8, 205 (1996)).  With s = tr + Z, a = 1 - dt/2,
c0 = (a a + (1 - eta eps) dt - 1) / 2 and b = sqrt(eta eps) dy, x = X / tr,

    X <- a (X + b s),  Y <- a Y,  tr <- tr + c0 s + b (X + b s / 2),  Z <- a a s - tr,

and the state is divided by tr only at record steps and at the end of each
noise block, where y = Y a^k / tr, k steps after the last division.  Each
step maps a density matrix to a positive multiple of one (positivity by
construction), so states stay in the Bloch ball for any dW and
no purity check or projection is needed.  The feedback term is applied as
an exact rotation about the y axis by the angle sqrt(eta) Phi dt, composed
after the Kraus step.  The rotation must not be linearized: the drive
carries the fed-back shot noise, so its per-step variance scales like
(g^2/eps) dt^2 / (loop memory), which is of diffusive order dt for
practicable step counts; the exact rotation keeps the norm and captures the
quadratic Ito content of the fed-back noise, where the linearized tangent
would need tau/dt >> g^2 orders of magnitude beyond any practical budget
(it silently distorts the ensemble drift long before it visibly diverges).

Ensembles are bitwise deterministic for a fixed (seed, n_traj, dt): each
trajectory i draws from its own generator `_stream(seed, i)` (in blocks of
NOISE_BLOCK steps, which leaves the stream unchanged), all trajectories are
stepped in lockstep by elementwise arithmetic, and the mean and variance
(records.mean(axis=0), bitwise records.var(axis=0, ddof=1) as a row-by-row
sum of squared deviations) add the rows in trajectory-index order.  Only
`_stream` derives a stream (seed XOR i); tests substitute noise only there
(a run looks it up, and forked slices inherit it), and a coupled run at 2 dt
reads the fine streams pairwise, (xi_2k + xi_2k+1) / sqrt 2.  With geometric
weights a member's operation order does not depend on the ensemble size, so
member i equals a one-trajectory run on its stream bitwise; general weights
take the feedback drive from a BLAS matrix-vector product, whose summation
order may change with the ensemble size, so there the two agree to rounding.
Reproducible is not independent: seeds differing only below bit length(n)
draw nearly the same streams (at n = 1000 seeds 11, 12 and 13 fit one decay
rate to five digits), so independent ensembles need seeds 2**k >= n apart.

Wide ensembles run on every CPU the process may use.  With geometric
weights (flat ones have ratio 1) the n trajectories are cut into
min(len(os.sched_getaffinity(0)), n // MIN_SLICE) contiguous slices of
near-equal width.  One slice runs in this process; of several, slice 0
runs here and every other in a worker forked from it, which this process
reaps after its own slice, also when that raises.  Each slice steps its
trajectories with the same kernel and writes their rows of the record,
current and drive arrays, which live in an anonymous shared mapping, so
nothing is copied back.  Trajectories are independent columns of the
elementwise step, so the outputs are bitwise the same for any number of
CPUs.  A guard trip is reported as the whole ensemble would meet it.  A
slice checks the guard once per noise block, on the Phi of every step in
it, and stops with the exact step and peak of its first trip (the block's
later steps ran on, and are discarded); the earliest step over the slices
is raised, with the largest peak among the slices tripping there.  A
worker that dies or raises (its traceback goes to stderr) is a
RuntimeError naming its slice and exit status; killing this process
leaves its workers to finish their slices and exit.  General weights
always run as one slice, because the BLAS product rounds differently with
the width and offset of a slice.  One slice, the rule's result on one CPU
and for narrow ensembles, is also taken without os.sched_getaffinity and
while other threads run (fork copies only the calling thread).  The
workers' memory shows under resource.RUSAGE_CHILDREN once they are
reaped, not under RUSAGE_SELF.

A streamed current spectrum (`TrajectoryConfig.current_nperseg`) is summed
as the run steps: each slice copies its current into a window of nperseg
steps per trajectory and adds each completed segment's `segment_power`
(WELCH_BLOCK samples of rows at a time) to per-row sums, added in index
order at the end.  That is about 12 n nperseg bytes at any duration (the
raw record: 8 n n_steps), bitwise the same for any slicing, and
`welch_spectrum` of the raw record to rounding.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import AtomState
from .errors import InstabilityError, ParameterError, count, positive
from .loop import (MIN_NPERSEG, WELCH_BLOCK, LoopConfig, assert_discrete_stable, assert_stable,
                   check_nperseg, segment_power, welch_density, welch_hop, welch_spectrum,
                   welch_window)

# Steps of shot noise drawn per block.  The noise buffer holds NOISE_BLOCK
# steps of a slice (8 * n * NOISE_BLOCK bytes), whatever the run length.
NOISE_BLOCK = 512
# Generators fill their rows NOISE_TILE trajectories at a time, so that the
# pass transposing a tile into step-major order reads from cache.
NOISE_TILE = 64
# Fewest trajectories per forked worker slice.  A narrower slice spends
# more on the Python overhead of every step than it gains from the extra CPU.
MIN_SLICE = 256


@dataclass(frozen=True)
class TrajectoryConfig:
    """Controls for a conditioned ensemble run.

    dt must resolve both the loop filter (`LoopFilter.check_step`: at most
    a tenth of tau, or of min(tau, 4 time_constant) for an exponential
    filter) and the atomic dynamics (dt <= 1e-2, lifetimes = 1).
    `record_stride` subsamples the stored trajectory records (default ~
    every 0.01 lifetimes); `phi_guard` (positive and finite) aborts on
    runaway feedback drive.  `current_nperseg` streams the current's Welch
    spectrum into `EnsembleResult.current_psd` in segments of that many
    steps (clamped to the run; 0: `welch_window`'s default, min_segments 4).
    """

    loop: LoopConfig
    dt: float
    duration: float
    n_traj: int
    seed: int
    initial_state: AtomState = AtomState(0.0, 0.0, -1.0)
    record_stride: int | None = None
    record_current: bool = False
    record_drive: bool = False
    phi_guard: float = 1e3
    current_nperseg: int | None = None

    def validate(self) -> "TrajectoryConfig":
        positive("dt and duration", self.dt, self.duration)
        self.loop.filter.check_step(self.dt)
        if self.dt > 1e-2 + 1e-15:
            raise ParameterError(f"dt = {self.dt} must be at most 1e-2 lifetimes")
        count("n_traj", self.n_traj)
        count("seed", self.seed, zero=True)
        count("record_stride", 1 if self.record_stride is None else self.record_stride)
        positive("phi_guard", self.phi_guard)
        if self.current_nperseg is not None:  # 0 takes the default length
            count("current_nperseg", self.current_nperseg, zero=True)
            check_nperseg(self.current_nperseg or MIN_NPERSEG)
        self.initial_state.validate()
        return self

    def stride(self) -> int:
        if self.record_stride is not None:
            return int(self.record_stride)
        return max(1, int(round(0.01 / self.dt)))


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Ensemble means with standard errors at the recorded times, plus the
    per-trajectory records that fit errors need, and optionally raw current
    and drive records and the current's streamed (omega, psd)."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    config: TrajectoryConfig
    n_steps: int
    records: np.ndarray
    currents: np.ndarray | None = None
    drives: np.ndarray | None = None
    current_psd: tuple[np.ndarray, np.ndarray] | None = None


def _filter_mode(weights: np.ndarray) -> tuple[str, float]:
    """Phi evaluation strategy and geometric ratio: O(1) recursion for
    geometric weights (flat ones have ratio exactly 1), O(m) product
    otherwise.  `LoopFilter.check_step` ensures at least 10 weights."""
    ratio = weights[1] / weights[0]
    if np.allclose(weights[1:] / weights[:-1], ratio, rtol=1e-9, atol=0.0):
        return "geometric", float(ratio)
    return "general", 0.0


@dataclass(frozen=True, eq=False)
class _Plan:
    """What every trajectory slice of one run shares."""

    cfg: TrajectoryConfig
    n_steps: int
    rec_steps: list[int]
    weights: np.ndarray
    filter_mode: str
    ratio: float
    window: np.ndarray | None  # of the streamed current spectrum


def _raise_first_failure(cfg: TrajectoryConfig, failures) -> None:
    """Raise the guard trip the whole ensemble, stepped as one, meets first:
    the earliest step over the slices, valued by the largest peak among the
    slices tripping there.  Every other slice ran that step within bounds,
    so the peak is the whole ensemble's."""
    failed = [f for f in failures if f is not None]
    if not failed:
        return
    k = min(step for step, _ in failed)
    peak = max(value for step, value in failed if step == k)
    raise InstabilityError(
        f"feedback drive |Phi| = {peak:.3g} exceeded the guard "
        f"{cfg.phi_guard:.3g} at t = {k * cfg.dt:.4g}"
    )


def _stream(seed: int, i: int) -> np.random.Generator:
    """The normal stream of trajectory i in an ensemble seeded `seed`."""
    return np.random.default_rng(seed ^ i)


def _run_slice(plan: _Plan, records, currents, drives, lo, hi, empty=np.empty, power=None):
    """Step trajectories [lo, hi) in lockstep, writing their rows of the
    output arrays, and of `power`, the per-row sums of the current's
    `segment_power`.  Returns None, or the first guard trip as (step, peak)
    where the rows are left partly written.  The completely positive linear
    Kraus map steps each unnormalized (tr, X, Y, Z), divided by tr, with
    y = Y a^k / tr, only at record steps and block ends; the guard reads
    each block's Phi rows once the block is stepped (module docstring)."""
    cfg = plan.cfg
    n = hi - lo
    dt = cfg.dt
    n_steps, weights = plan.n_steps, plan.weights
    records = records[lo:hi]
    cur_t = currents[lo:hi].T if currents is not None else None
    drives = drives[lo:hi] if drives is not None else None
    if power is not None:  # seg[:, :fill]: each row's current in its open segment
        power, window, nps, fill = power[lo:hi], plan.window, plan.window.size, 0
        hop, group, seg = welch_hop(nps), max(WELCH_BLOCK // nps, 1), empty((n, nps))
        power.fill(0.0)
    flushes = cur_t is not None or power is not None

    def flush(k, rows):  # the current of steps k - len(rows) + 1 .. k, step-major like the ring
        nonlocal fill
        if cur_t is not None:
            cur_t[k + 1 - len(rows) : k + 1] = rows
        while power is not None and len(rows):
            take = min(nps - fill, len(rows))
            seg[:, fill : fill + take] = rows[:take].T
            fill, rows = fill + take, rows[take:]
            if fill == nps:  # transform the complete segment, keep the next one's head
                for r in range(0, n, group):  # shifted by groups: no copy of the whole window
                    power[r : r + group] += segment_power(seg[r : r + group], window)
                    seg[r : r + group, : nps - hop] = seg[r : r + group, hop:]
                fill = nps - hop

    g = cfg.loop.g
    eta, eps = cfg.loop.eta, cfg.loop.eps
    m = weights.size
    start = int(round(cfg.loop.filter.tau / dt)) if g != 0.0 else n_steps  # first fed-back step
    general = plan.filter_mode == "general"
    a = 1.0 - 0.5 * dt
    sqrt_eps = np.sqrt(eps)
    # Phi = (g / sqrt(eps)) w_scale f_sum: f_sum is the ring's weighted sum or its recursion.
    w_scale = 1.0 if general else weights[0]
    # Scalar operands as 0-d float64 arrays: a Python float or numpy scalar
    # operand costs a conversion on every ufunc call.
    (ratio_m, ratio, psi_scale, theta_scale, meas_scale, b_scale, c0, a64, a_sq, half, sqrt_dt) = (
        np.array(v, dtype=np.float64)
        for v in (
            plan.ratio**m, plan.ratio, g * w_scale, np.sqrt(eta) * dt * g / sqrt_eps * w_scale,
            np.sqrt(eta * eps), np.sqrt(eta * eps) * dt,
            0.5 * (a * a + (1.0 - eta * eps) * dt - 1.0), a, a * a, 0.5, np.sqrt(dt),
        )
    )
    # Lag weights of step k, w_j at ring row (k - j) % m, are the window
    # [o, o + m) of the reversed weights repeated twice, o = (-k) % m.
    lag_table = np.concatenate((weights[::-1], weights[::-1]))
    rec_steps = plan.rec_steps

    rngs = [_stream(cfg.seed, i) for i in range(lo, hi)]

    state = np.repeat(cfg.initial_state.bloch[:, None], n, axis=1)
    x, y, z = state
    tr = np.ones(n)
    normed = 0  # last step at which tr was 1
    ring = np.zeros((m, n))
    ring_rows = list(ring)
    f_sum = np.zeros(n)
    zero = np.zeros(n)  # sqrt(eps) Phi before the feedback starts
    u, b, s, lagged, angle, cos_t, sin_t, t1, t2, t3, t4 = (np.empty(n) for _ in range(11))

    block = min(NOISE_BLOCK, n_steps)
    draws = np.empty((min(n, NOISE_TILE), block))
    # Step-major rows of dW / dt; a step's row holds its sqrt(eps) Phi once
    # u has read it.  It is allocated like the outputs (see _run_cuts).
    noise = empty((block, n))

    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    records[:, 0] = state.T
    rec = 1
    # Steps after a guard trip run on in the block and may overflow; their
    # values are discarded, so their warnings are not the caller's.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k0 in range(0, n_steps, block):
            take = min(block, n_steps - k0)
            # Each generator fills its own row of a cache-sized tile of
            # trajectories; one transposed pass scales it into step-major dW / dt.
            for col in range(0, n, NOISE_TILE):
                tile = draws[: min(NOISE_TILE, n - col)]
                for row, rng in zip(tile, rngs[col : col + NOISE_TILE]):
                    rng.standard_normal(out=row[:take])
                div(tile[:, :take].T, sqrt_dt, noise[:take, col : col + tile.shape[0]])

            for k, row in zip(range(k0, k0 + take), noise):
                # u = sqrt(eta eps) x + dW/dt is the current less its drive
                # term, and the Kraus b = sqrt(eta eps) dy = sqrt(eta eps) dt u.
                div(x, tr, u)
                mul(u, meas_scale, u)
                add(u, row, u)
                mul(u, b_scale, b)
                fed = k >= start
                psi = row if fed else zero
                if fed:
                    if general:
                        o = -k % m
                        np.matmul(lag_table[o : o + m], ring, f_sum)
                    mul(f_sum, psi_scale, psi)
                    mul(f_sum, theta_scale, angle)

                # The current u + sqrt(eps) Phi replaces the slot's oldest sample once read.
                j = k % m
                slot = ring_rows[j]
                if not general:
                    mul(slot, ratio_m, lagged)
                add(u, psi, slot)
                if not general:
                    sub(slot, lagged, lagged)
                    f_sum *= ratio
                    f_sum += lagged
                if flushes and (j == m - 1 or k + 1 == n_steps):
                    flush(k, ring[: j + 1])

                # Linear Kraus step, s = tr + Z (see the module docstring).
                add(tr, z, s)
                mul(b, s, t1)
                mul(t1, half, t2)
                add(x, t2, t2)
                add(x, t1, x)
                mul(x, a64, x)
                mul(s, c0, t1)
                add(tr, t1, tr)
                mul(b, t2, t2)
                add(tr, t2, tr)
                mul(s, a_sq, z)
                sub(z, tr, z)

                if fed:
                    # Exact rotation about y: X <- X cos + Z sin, Z <- Z cos - X sin.
                    np.cos(angle, cos_t)
                    np.sin(angle, sin_t)
                    mul(x, cos_t, t1)
                    mul(z, sin_t, t2)
                    mul(z, cos_t, t3)
                    mul(x, sin_t, t4)
                    add(t1, t2, x)
                    sub(t3, t4, z)

                if k + 1 == rec_steps[rec] or k + 1 == k0 + take:
                    mul(y, a ** (k + 1 - normed), y)
                    div(state, tr, state)
                    tr.fill(1.0)
                    normed = k + 1
                    if k + 1 == rec_steps[rec]:
                        records[:, rec] = state.T
                        rec += 1

            rows = noise[:take]
            rows[: max(start - k0, 0)] = 0.0
            if k0 + take > start:
                peaks = np.maximum(rows.max(axis=1), -rows.min(axis=1))
                div(peaks, sqrt_eps, peaks)
                over = np.flatnonzero(peaks > cfg.phi_guard)
                if over.size:
                    return k0 + int(over[0]), float(peaks[over[0]])
            if drives is not None:
                div(rows.T, sqrt_eps, drives[:, k0 : k0 + take])
    return None


def _slice_count(n: int, filter_mode: str) -> int:
    """Number of trajectory slices to run in forked workers; 1 keeps the
    whole ensemble in this process."""
    if filter_mode == "general" or not hasattr(os, "sched_getaffinity"):
        return 1
    slices = min(len(os.sched_getaffinity(0)), n // MIN_SLICE)
    # fork copies only the calling thread: a lock another thread holds stays held.
    if slices < 2 or threading.active_count() > 1:
        return 1
    return slices


def _shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Float64 array in an anonymous shared mapping: forked workers write
    it in place and this process reads their rows without a copy."""
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def _run_forked(run_slice, cuts: list[int]) -> list:
    """Run slice i, trajectories [cuts[i], cuts[i + 1]), in a forked worker
    for every i >= 1 and in this process for i = 0, and reap every worker,
    also when this process's slice raises.  Returns each slice's first
    failure or None; a worker that dies or raises is a RuntimeError."""
    trips = _shared_empty((len(cuts) - 2, 2))  # each worker's (step, peak); step -1: none
    pids = []
    try:
        for i, (lo, hi) in enumerate(zip(cuts[1:-1], cuts[2:])):
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork with other OS threads, as OpenBLAS's
                # idle ones: no Python thread runs (_slice_count), and the
                # forked geometric-mode step makes no BLAS call.
                warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the worker leaves here, and never into the caller's frames
                status = 1
                try:
                    trips[i] = run_slice(lo, hi) or (-1, 0.0)
                    status = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())  # as if uncaught: traceback to stderr
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            pids.append(pid)
        failures = [run_slice(cuts[0], cuts[1])]
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for i, code in enumerate(codes, 1):
        if code:
            raise RuntimeError(f"trajectory slice {i} [{cuts[i]}, {cuts[i + 1]}) "
                               f"failed: its worker exited with status {code}")
    return failures + [None if step < 0 else (int(step), float(peak)) for step, peak in trips]


def _plan(cfg: TrajectoryConfig) -> _Plan:
    """Validate a run and fix what all of its slices share."""
    cfg.validate()
    assert_stable(cfg.loop)
    n_steps = int(round(cfg.duration / cfg.dt))
    if n_steps < 1:
        raise ParameterError("duration shorter than one step")
    rec_steps = [*range(0, n_steps, cfg.stride()), n_steps]  # every stride-th, and the last
    weights = assert_discrete_stable(cfg.loop.filter, cfg.loop.g, cfg.dt)
    nps = cfg.current_nperseg
    window = None if nps is None else welch_window(n_steps, nps or None, min_segments=4)
    return _Plan(cfg, n_steps, rec_steps, weights, *_filter_mode(weights), window)


def _run_cuts(plan: _Plan, cuts: list[int]) -> EnsembleResult:
    """Run the ensemble as the trajectory slices [cuts[i], cuts[i + 1]),
    one in this process or several forked (`_run_forked`), then reduce."""
    cfg = plan.cfg
    n = cfg.n_traj
    forked = len(cuts) > 2
    # Forked runs map outputs and noise buffers: the heap would keep the latter.
    empty = _shared_empty if forked else np.empty
    records = empty((n, len(plan.rec_steps), 3))
    currents = empty((n, plan.n_steps)) if cfg.record_current else None
    drives = empty((n, plan.n_steps)) if cfg.record_drive else None
    nps = 0 if plan.window is None else plan.window.size
    power = empty((n, (nps + 1) // 2 - 1)) if nps else None
    run_slice = functools.partial(_run_slice, plan, records, currents, drives, empty=empty,
                                  power=power)
    _raise_first_failure(cfg, _run_forked(run_slice, cuts) if forked else [run_slice(*cuts)])

    mean = records.mean(axis=0)
    sq_dev = np.zeros_like(mean)  # records.var(axis=0, ddof=1)'s row-by-row sum
    for row in records:
        dev = row - mean
        sq_dev += dev * dev
    stderr = np.sqrt(sq_dev / (n - 1) / n) if n > 1 else np.full_like(mean, np.nan)
    if nps:  # the rows' sums added in index order, averaged over every row's segments
        current_psd = welch_density(power.sum(axis=0), plan.window, cfg.dt, plan.n_steps, n)
    return EnsembleResult(
        times=np.array(plan.rec_steps) * cfg.dt,
        mean=mean,
        stderr=stderr,
        config=cfg,
        n_steps=plan.n_steps,
        records=records,
        currents=currents,
        drives=drives,
        current_psd=current_psd if nps else None,
    )


def run_ensemble(cfg: TrajectoryConfig) -> EnsembleResult:
    """Integrate an ensemble of conditioned trajectories in lockstep.

    Returns ensemble means and standard errors of (x, y, z) at the recorded
    times.  Bitwise deterministic for fixed configuration, whatever the
    number of CPUs (see module docstring for the slice rule and the
    reduction contract).
    """
    plan = _plan(cfg)
    n = cfg.n_traj
    slices = _slice_count(n, plan.filter_mode)
    return _run_cuts(plan, [n * i // slices for i in range(slices + 1)])


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay rate fitted to an ensemble-mean component."""

    rate: float
    stderr: float
    component: str
    window: tuple[float, float]


def fit_decay_rate(
    result: EnsembleResult,
    component: str = "x",
    window: tuple[float, float] = (0.5, 3.0),
) -> DecayFit:
    """Least-squares slope of the log mean component over the fit window
    (skipping early transients and the late noise floor), with its
    delta-method standard error.

    With the slope weights a_t = (t - tbar) / sum_t (t - tbar)^2 over the
    window and the ensemble mean m_t, the rate is -sum_t a_t log m_t.  Its
    standard error is sqrt(Var_i(u_i) / n) with u_i = sum_t (a_t / m_t) X_it
    over the records X of the n trajectories (sample variance, ddof = 1), so
    it keeps each trajectory's covariance across times; NaN for n = 1.
    """
    ci = "xyz".index(component)
    t = result.times
    sel = (t >= window[0]) & (t <= window[1])
    if np.count_nonzero(sel) < 4:
        raise ParameterError("fit window contains fewer than 4 recorded times")
    ts = t[sel]
    mean = result.mean[sel, ci]
    if np.any(mean <= 0.0):
        raise ParameterError(
            "mean component crosses zero inside the fit window; shrink the window"
        )
    a = ts - ts.mean()
    a /= a @ a
    rate = -(a @ np.log(mean))
    u = result.records[:, sel, ci] @ (a / mean)
    stderr = math.sqrt(np.var(u, ddof=1) / u.size) if u.size > 1 else math.nan
    return DecayFit(rate=float(rate), stderr=stderr, component=component, window=window)


def ensemble_current_psd(
    result: EnsembleResult, nperseg: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Welch spectrum of the current: `welch_spectrum` of the raw
    (n_traj, n_steps) current record, averaged over every segment of every
    trajectory, with at least 4 segments per trajectory by default.  A run's
    streamed estimate is `EnsembleResult.current_psd`."""
    if result.currents is None:
        raise ParameterError("run with record_current=True to estimate the current PSD")
    return welch_spectrum(result.currents, result.config.dt, nperseg=nperseg, min_segments=4)
