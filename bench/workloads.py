"""The benchmark's three workloads and their output checks.

Each workload is a closed loop: one caller in one process starts the next
operation only after the previous one returns.  A workload is built once
(its set-up: importing the inloop modules it uses and building its inputs)
and then run pass after pass; every pass draws fresh inputs from a
generator seeded by (workload seed, pass index), so the same seed gives the
same inputs.  An operation returns True when its output check passes.

Why these three:

- markov_wide: the trajectory engine in its wide regime (arithmetic
  dominates, geometric filter mode) and its memory-heavy path; the
  acceptance-criterion-5 experiment at a smaller ensemble.
- current_narrow: the same engine on a narrow ensemble, where per-step
  Python overhead dominates, reached through `inloop.cli` and `inloop.output`
  with a current record and many short Welch spectra.
- analysis: the reproduction steps that run no trajectories (loop gain
  landscape, classical-loop Monte Carlo, both master-equation generators,
  numerical fluorescence spectra), so engine changes should leave it alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

ETA, EPS, G_OPT = 0.8, 0.95, -19.0


def seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def decay_ok(rate: float, stderr: float, target: float) -> bool:
    """Acceptance criterion 5's 10 % band, widened by three of the fit's own
    standard errors, so that a correct engine passes on any seed."""
    return bool(abs(rate - target) <= 0.10 * target + 3.0 * stderr)


def psd_ok(est: float, ref: float) -> bool:
    """Suppressed shot noise that follows the discrete loop transfer to 5 %."""
    return bool(est < 0.01 and abs(est - ref) / ref < 0.05)


class MarkovWide:
    name = "markov_wide"

    def __init__(self, tiny: bool = False) -> None:
        from inloop import bloch, loop, trajectories

        self.bloch, self.trajectories = bloch, trajectories
        # The tiny size keeps tau/dt and the fit window but shortens the
        # loop memory so that a few hundred steps cover the three lifetimes.
        tau, self.dt = (1e-2, 1e-3) if tiny else (1e-3, 1e-4)
        self.n_traj = 200 if tiny else 1000
        self.loop_cfg = loop.LoopConfig(
            g=G_OPT, eps=EPS, eta=ETA, filter=loop.LoopFilter.single_pole(tau)
        )

    def _decay(self, seed: int, initial, component: str, target: float) -> bool:
        T = self.trajectories
        cfg = T.TrajectoryConfig(
            loop=self.loop_cfg, dt=self.dt, duration=3.0, n_traj=self.n_traj,
            seed=seed, initial_state=initial, phi_guard=2e4,
        )
        result = T.run_ensemble(cfg)
        fit = T.fit_decay_rate(result, component)
        return bool(np.all(np.isfinite(result.mean))) and decay_ok(fit.rate, fit.stderr, target)

    def operations(self, rng: np.random.Generator):
        """One decay experiment per pass, x- or y-initial as the pass's
        generator draws it: both cost the same, and shorter passes give the
        run's median more samples."""
        atom = self.bloch.AtomState
        seed = seed_from(rng)
        if rng.random() < 0.5:
            return [("decay_x", lambda: self._decay(seed, atom(1.0, 0.0, 0.0), "x", 0.12))]
        return [("decay_y", lambda: self._decay(seed, atom(0.0, 1.0, 0.0), "y", 0.5))]


class CurrentNarrow:
    name = "current_narrow"

    def __init__(self, workdir: Path, tiny: bool = False) -> None:
        from inloop import cli, loop

        self.cli, self.loop = cli, loop
        self.n_traj, self.duration, self.nperseg = (20, 1.0, 2048) if tiny else (100, 3.0, 8192)
        self.tau, self.dt = 1e-3, 1e-4
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "trajectories.conf"
        self.config.write_text(
            f"g = {G_OPT}\neps = {EPS}\neta = {ETA}\nfilter = single_pole\n"
            f"tau = {self.tau}\ndt = {self.dt}\nduration = {self.duration}\n"
            f"n_traj = {self.n_traj}\nz0 = -1.0\nrecord_current = true\n"
            f"phi_guard = 2e4\nnperseg = {self.nperseg}\n"
        )
        self.filter = loop.LoopFilter.single_pole(self.tau)

    def _run_cli(self, seed: int) -> bool:
        out = self.workdir / "run"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["trajectories", "--config", str(self.config), "--seed", str(seed),
                "--outdir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            return False
        return self.check(out, seed)

    def check(self, out: Path, seed: int) -> bool:
        means = np.loadtxt(out / "means.csv", delimiter=",", skiprows=1, ndmin=2)
        psd = np.loadtxt(out / "current_psd.csv", delimiter=",", skiprows=1, ndmin=2)
        manifest = json.loads((out / "trajectories_manifest.json").read_text())
        files_ok = (
            means.shape[1] == 7
            and psd.shape[1] == 2
            and bool(np.all(np.isfinite(means)) and np.all(np.isfinite(psd)))
            and manifest["config"]["seed"] == seed
            and manifest["outputs"] == ["current_psd.csv", "means.csv"]
        )
        omega, values = psd[:, 0], psd[:, 1]
        sel = (omega >= 30.0) & (omega <= 300.0)
        h_d = self.loop.discrete_loop_transfer(self.filter, self.dt, omega[sel])
        ref = float(np.mean(1.0 / np.abs(1.0 - G_OPT * h_d) ** 2))
        return files_ok and psd_ok(float(np.mean(values[sel])), ref)

    def operations(self, rng: np.random.Generator):
        seed = seed_from(rng)
        return [("cli_trajectories", lambda: self._run_cli(seed))]


class Analysis:
    name = "analysis"

    def __init__(self, tiny: bool = False) -> None:
        from inloop import bloch, feedback, loop, spectra, squeezed_bath

        self.bloch, self.feedback, self.loop = bloch, feedback, loop
        self.spectra, self.squeezed_bath = spectra, squeezed_bath
        L = loop
        self.filters = [L.LoopFilter.rectangular(1.0), L.LoopFilter.single_pole(1.0),
                        L.LoopFilter.exponential(1.0)]
        self.opt = L.LoopConfig(g=G_OPT, eps=EPS, eta=ETA, filter=self.filters[0])
        self.omega = np.linspace(0.0, 50.0, 2001)
        self.n_gains = 8 if tiny else 60
        self.mc_duration = 2e3 if tiny else 2e4
        self.n_draws = 5 if tiny else 100
        self.spec_grid = np.linspace(-3.0, 3.0, 1201)
        # tau_max spans 100 (tiny: 25) decay times of the narrow 0.12 rate;
        # dtau resolves the broad 8.1 rate of the free bath.
        self.tau_max, self.dtau = (25.0 / 0.12, 2e-3) if tiny else (100.0 / 0.12, 2e-3)

    def landscape(self, gains: np.ndarray) -> bool:
        L = self.loop
        flat = float(L.in_loop_spectrum(self.opt, 0.0))
        ok = abs(flat - (1.0 - EPS)) < 1e-12
        L.assert_discrete_stable(self.opt.filter, self.opt.g, 0.02)
        ok &= bool(np.max(np.abs(L.loop_recursion_poles(self.opt, 0.02))) < 1.0)
        for filt in self.filters:
            for g in gains:
                cfg = L.LoopConfig(g=float(g), eps=EPS, eta=ETA, filter=filt)
                if not L.is_stable(cfg):
                    continue
                s_in = L.in_loop_spectrum(cfg, self.omega)
                s_hom = L.homodyne_spectrum(cfg, self.omega)
                if filt.kind != "single_pole":
                    # The single-pole tail spans 23 lifetimes, over a
                    # thousand taps at this dt, and np.roots is cubic in that.
                    L.loop_recursion_poles(cfg, 0.02)
                ok &= bool(np.all(s_in >= (1.0 - EPS) * (1.0 - 1e-9)) and np.all(s_hom > 0.0))
        return ok

    def monte_carlo(self, seed: int) -> bool:
        L = self.loop
        rec = L.simulate_classical_loop(self.opt, dt=0.02, duration=self.mc_duration, seed=seed)
        omega, psd = L.welch_spectrum(rec.x_in, rec.dt, nperseg=4096)
        _, psd_i = L.welch_spectrum(rec.current, rec.dt, nperseg=4096)
        low = L.band_average(omega, psd, 0.0, 0.6)
        return 0.04 < low < 0.06 and bool(np.all(np.isfinite(psd_i)))

    def generators(self, rng: np.random.Generator) -> bool:
        F, Q, B = self.feedback, self.squeezed_bath, self.bloch
        worst_eig, worst_choi = 0.0, 0.0
        for _ in range(self.n_draws):
            eta, eps = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
            lam = rng.uniform(-eta + 1e-3, 3.0)
            level = float(np.exp(rng.uniform(np.log(0.02), np.log(10.0))))
            for gen, rs in ((F.build_generator(lam, eta, eps), F.rates(lam, eta, eps)),
                            (Q.build_squeezed_generator(eta, level), Q.free_rates(eta, level))):
                evals = np.sort(np.linalg.eigvals(gen.drift).real)
                target = np.sort([-rs.gamma_x, -rs.gamma_y, -rs.gamma_z])
                worst_eig = max(worst_eig, float(np.max(np.abs(evals - target))))
                for t in (1e-3, 1e-2, 1e-1):
                    worst_choi = min(
                        worst_choi, B.smallest_choi_eigenvalue(gen.drift, gen.constant, t)
                    )
        return worst_eig < 1e-10 and worst_choi > -1e-10

    def fluorescence(self) -> bool:
        F, Q, S = self.feedback, self.squeezed_bath, self.spectra
        lam = -ETA * EPS
        ok = True
        for gen, rs in ((F.build_generator(lam, ETA, EPS), F.rates(lam, ETA, EPS)),
                        (Q.build_squeezed_generator(ETA, 1.0 - EPS), Q.free_rates(ETA, 1.0 - EPS))):
            num = S.numerical_power_spectrum(gen, ETA, self.spec_grid, self.tau_max, self.dtau)
            ana = S.analytic_power_spectrum(rs, ETA, self.spec_grid)
            fit = S.fit_lorentzian_pair(num)
            ok &= float(np.max(np.abs(num.values - ana.values))) < 1e-4
            ok &= abs(fit["narrow"] - 0.12) / 0.12 < 0.01
        return ok

    def operations(self, rng: np.random.Generator):
        gains = np.sort(rng.uniform(-30.0, 0.9, self.n_gains))
        mc_seed = seed_from(rng)
        draws = np.random.default_rng(seed_from(rng))
        return [
            ("landscape", lambda: self.landscape(gains)),
            ("monte_carlo", lambda: self.monte_carlo(mc_seed)),
            ("generators", lambda: self.generators(draws)),
            ("fluorescence", self.fluorescence),
        ]


NAMES = ("markov_wide", "current_narrow", "analysis")


def build(name: str, workdir: Path, tiny: bool = False):
    if name == "markov_wide":
        return MarkovWide(tiny)
    if name == "current_narrow":
        return CurrentNarrow(workdir, tiny)
    if name == "analysis":
        return Analysis(tiny)
    raise ValueError(f"unknown workload {name!r}")
