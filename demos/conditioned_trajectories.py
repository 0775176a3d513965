#!/usr/bin/env python3
"""Conditioned trajectories with a real delay loop, converging to the
Markovian feedback master equation.

Each trajectory integrates the homodyne stochastic master equation in Bloch
form while the classical loop filters the (noisy) photocurrent into the
modulator drive with a strictly causal delay.  Averaging trajectories
washes out the conditioning and leaves the feedback master equation: with
g = -19 at eta = 0.8, eps = 0.95 the x quadrature should decay at
(1 - eta eps)/2 = 0.12 instead of the natural 0.5, while y keeps its
natural 0.5.

Runs a modest ensemble (about half a minute) and prints fitted rates.
"""

import numpy as np

from inloop import (
    AtomState,
    LoopConfig,
    LoopFilter,
    TrajectoryConfig,
    build_generator,
    fit_decay_rate,
    run_ensemble,
)
from inloop.feedback import propagate

ETA, EPS, GAIN = 0.8, 0.95, -19.0


def main():
    loop = LoopConfig(g=GAIN, eps=EPS, eta=ETA, filter=LoopFilter.single_pole(1e-3))
    cfg = TrajectoryConfig(
        loop=loop, dt=1e-4, duration=3.0, n_traj=3000, seed=7,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
    )
    print(f"integrating {cfg.n_traj} trajectories, dt = {cfg.dt}, loop memory {loop.filter.tau} ...")
    res = run_ensemble(cfg)
    fit = fit_decay_rate(res, "x")
    print(f"fitted gamma_x = {fit.rate:.4f} +- {fit.stderr:.4f}   (Markovian value 0.12)")

    cfg_y = TrajectoryConfig(
        loop=loop, dt=1e-4, duration=3.0, n_traj=3000, seed=8,
        initial_state=AtomState(0.0, 1.0, 0.0), phi_guard=2e4,
    )
    fit_y = fit_decay_rate(run_ensemble(cfg_y), "y")
    print(f"fitted gamma_y = {fit_y.rate:.4f} +- {fit_y.stderr:.4f}   (unaffected: 0.5)")

    # open loop: the conditioning alone must not move the ensemble mean
    open_loop = LoopConfig(g=0.0, eps=EPS, eta=ETA, filter=LoopFilter.rectangular(1e-2))
    cfg0 = TrajectoryConfig(
        loop=open_loop, dt=1e-3, duration=1.0, n_traj=3000, seed=9,
        initial_state=AtomState(0.7, 0.0, 0.1),
    )
    res0 = run_ensemble(cfg0)
    rs0 = build_generator(0.0, ETA, EPS).rates
    exact = propagate(rs0, cfg0.initial_state, res0.times)
    gap = np.max(np.abs(res0.mean - exact) / np.maximum(res0.stderr, 1e-4))
    print(f"open-loop ensemble versus exact master equation: max |gap| = {gap:.2f} sigma")


if __name__ == "__main__":
    main()
