"""Child process of the benchmark: one fresh interpreter per measurement.

    python bench/worker.py run --workload W --seed S --seconds T --trace 0|1 [--tiny]
    python bench/worker.py setup --workload W --seed S [--tiny]
    python bench/worker.py sweep-point --filter-mode geometric --n 10000 [--one-cpu]

`run` and `setup` import the workload's inloop modules and build its inputs,
then print `READY`; the parent times set-up from process start to that line.
`run` then runs passes for T seconds and prints one JSON line with the
counts, the median pass time scaled to reference speed (see
`reference.py`), the raw pass times, the process's peak RSS and, when
traced, the per-layer metrics.  `sweep-point` times one engine sweep point
and prints its seconds.  `inloop` must be importable (the parent puts `src` on
PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

LAYERS = ("bloch", "loop", "feedback", "squeezed_bath", "spectra", "trajectories",
          "cli", "output")


def _count_ensemble(c, a, result) -> None:
    cfg = a["cfg"]
    c["trajectories.traj_steps"] += cfg.n_traj * result.n_steps
    arrays = [x for x in (result.records, result.currents) if x is not None]
    mb = sum(x.nbytes for x in arrays) / 2**20
    c["trajectories.result_mb"] = max(c["trajectories.result_mb"], mb)


def _count_loop_samples(c, a, result) -> None:
    c["loop.samples"] += result.x_in.size


def _count_transform(c, a, result) -> None:
    c["spectra.transform_points"] += (int(round(a["tau_max"] / a["dtau"])) + 1) * result.grid.size


def _count_cli(c, a, result) -> None:
    if result != 0:
        c["cli.errors"] += 1


def _count_csv(c, a, result) -> None:
    c["output.bytes_written"] += os.path.getsize(a["path"])


# Public functions traced in every workload: (module, function, counter).
TRACED = (
    ("inloop.trajectories", "run_ensemble", _count_ensemble),
    ("inloop.trajectories", "fit_decay_rate", None),
    ("inloop.trajectories", "ensemble_current_psd", None),
    ("inloop.loop", "welch_spectrum", None),
    ("inloop.loop", "simulate_classical_loop", _count_loop_samples),
    ("inloop.loop", "assert_stable", None),
    ("inloop.loop", "is_stable", None),
    ("inloop.loop", "assert_discrete_stable", None),
    ("inloop.loop", "loop_recursion_poles", None),
    ("inloop.loop", "in_loop_spectrum", None),
    ("inloop.loop", "homodyne_spectrum", None),
    ("inloop.feedback", "build_generator", None),
    ("inloop.squeezed_bath", "build_squeezed_generator", None),
    ("inloop.bloch", "smallest_choi_eigenvalue", None),
    ("inloop.spectra", "numerical_power_spectrum", _count_transform),
    ("inloop.spectra", "fit_lorentzian_pair", None),
    ("inloop.cli", "main", _count_cli),
    ("inloop.output", "write_csv", _count_csv),
)

# Busy-time metrics: metric name -> the spans whose union it measures.
BUSY = {
    "trajectories.run_ensemble.s": ["trajectories.run_ensemble"],
    "trajectories.fit_decay_rate.s": ["trajectories.fit_decay_rate"],
    "trajectories.ensemble_current_psd.s": ["trajectories.ensemble_current_psd"],
    "loop.welch_spectrum.s": ["loop.welch_spectrum"],
    "loop.simulate_classical_loop.s": ["loop.simulate_classical_loop"],
    "loop.stability.s": ["loop.assert_stable", "loop.is_stable",
                         "loop.assert_discrete_stable", "loop.loop_recursion_poles"],
    "loop.spectrum_eval.s": ["loop.in_loop_spectrum", "loop.homodyne_spectrum"],
    "feedback.build_generator.s": ["feedback.build_generator"],
    "squeezed_bath.build_squeezed_generator.s": ["squeezed_bath.build_squeezed_generator"],
    "bloch.smallest_choi_eigenvalue.s": ["bloch.smallest_choi_eigenvalue"],
    "spectra.numerical_power_spectrum.s": ["spectra.numerical_power_spectrum"],
    "spectra.fit_lorentzian_pair.s": ["spectra.fit_lorentzian_pair"],
    "cli.main.s": ["cli.main"],
    "output.write_csv.s": ["output.write_csv"],
}
CALLS = {
    "loop.welch_spectrum.calls": "loop.welch_spectrum",
    "feedback.build_generator.calls": "feedback.build_generator",
    "squeezed_bath.build_squeezed_generator.calls": "squeezed_bath.build_squeezed_generator",
}
COUNTERS = ("trajectories.traj_steps", "loop.samples", "spectra.transform_points",
            "output.bytes_written")

# Engine sweep: filter per evaluation mode, ensemble sizes, steps per size.
SWEEP_SIZES = (100, 1000, 10000)
SWEEP_STEPS = 3000


def sweep_filter(mode: str):
    import numpy as np
    from inloop.loop import LoopFilter

    if mode == "uniform":
        return LoopFilter.rectangular(1e-2)
    if mode == "geometric":
        return LoopFilter.single_pole(1e-3)
    if mode == "general":
        # Piecewise-linear samples of a decaying exponential: neither flat
        # nor geometric, 50 taps, and every pole of the discrete loop
        # recursion inside the unit circle at g = -19.
        s = np.linspace(0.0, 5e-3, 7)
        return LoopFilter.from_samples(5e-3, np.exp(-s / 1.25e-3))
    raise ValueError(f"unknown filter mode {mode!r}")


def sweep_seconds(mode: str, n: int, steps: int) -> float:
    """Wall time of one `run_ensemble` call at dt = 1e-4 and g = -19."""
    from inloop.bloch import AtomState
    from inloop.loop import LoopConfig
    from inloop.trajectories import TrajectoryConfig, run_ensemble

    cfg = TrajectoryConfig(
        loop=LoopConfig(g=-19.0, eps=0.95, eta=0.8, filter=sweep_filter(mode)),
        dt=1e-4, duration=steps * 1e-4, n_traj=n, seed=12345,
        initial_state=AtomState(1.0, 0.0, 0.0), phi_guard=2e4,
    )
    t0 = time.perf_counter()
    run_ensemble(cfg)
    return time.perf_counter() - t0


def engine_sweep(tiny: bool) -> dict[str, float]:
    steps = 30 if tiny else SWEEP_STEPS
    out = {}
    for mode in ("uniform", "geometric", "general"):
        for n in SWEEP_SIZES:
            t = sweep_seconds(mode, n, steps)
            out[f"trajectories.ns_per_traj_step.{mode}.n{n}"] = t / (n * steps) * 1e9
    return out


def run_passes(workload, seed: int, seconds: float, tracer=None):
    """Run passes until `seconds` have elapsed.  With a tracer, passes
    alternate traced and untraced, starting traced, so that the trace's
    overhead is measured within the run.  The reference kernel is timed
    before the first pass and after every pass, and each pass time is
    scaled to reference speed by the readings on either side of it.  Returns
    (attempted, failed, untraced pass times, traced pass times, raw pass
    times, reference readings), the two pass-time lists scaled."""
    import numpy as np
    from reference import reference_seconds, scaled

    attempted = failed = 0
    raw, is_traced = [], []
    refs = [reference_seconds()]
    start = time.perf_counter()
    index = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        use_trace = tracer is not None and index % 2 == 0
        if use_trace:
            tracer.run_id = index
            tracer.install(TRACED)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.pass", "bench") if use_trace else nullcontext():
                for name, op in workload.operations(rng):
                    attempted += 1
                    try:
                        with tracer.span(f"bench.{name}", "bench") if use_trace else nullcontext():
                            ok = op()
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        ok = False
                    if not ok:
                        print(f"{workload.name}: operation {name} failed its check "
                              f"(pass {index})", file=sys.stderr)
                        failed += 1
        finally:
            if use_trace:
                tracer.restore()
        raw.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        is_traced.append(use_trace)
        index += 1
        done = time.perf_counter() - start >= seconds
        if done and not all(is_traced):
            times = scaled(raw, refs)
            plain = [t for t, tr in zip(times, is_traced) if not tr]
            traced = [t for t, tr in zip(times, is_traced) if tr]
            return attempted, failed, plain, traced, raw, refs


def layer_metrics(tracer, plain: list[float], traced: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run.  Busy times, call counts, work
    counts and self times are per traced pass; `trajectories.result_mb` is
    the largest ensemble result computed (array nbytes, not a measured
    RSS); errors are totals."""
    from tracing import busy_time, self_times

    spans = tracer.spans
    passes = len(traced)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for metric, names in BUSY.items():
        out[metric] = busy_time([s for n in names for s in by_name.get(n, [])]) / passes
    for metric, name in CALLS.items():
        out[metric] = len(by_name.get(name, [])) / passes
    for metric in COUNTERS:
        out[metric] = tracer.counters[metric] / passes
    steps = tracer.counters["trajectories.traj_steps"]
    total = busy_time(by_name.get("trajectories.run_ensemble", []))
    out["trajectories.ns_per_traj_step"] = total / steps * 1e9 if steps else 0.0
    out["trajectories.result_mb"] = tracer.counters["trajectories.result_mb"]
    selfs = self_times(spans)
    for layer in ("bench",) + LAYERS:
        out[f"{layer}.self_s"] = sum(selfs[s.span_id] for s in spans if s.layer == layer) / passes
    for layer in LAYERS:
        errors = sum(1 for s in spans if s.layer == layer and s.error)
        out[f"{layer}.errors"] = errors + tracer.counters.get(f"{layer}.errors", 0.0)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["run", "setup", "sweep-point"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--filter-mode", default="geometric")
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--steps", type=int, default=SWEEP_STEPS)
    parser.add_argument("--one-cpu", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "sweep-point":
        if args.one_cpu:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(json.dumps({"seconds": sweep_seconds(args.filter_mode, args.n, args.steps)}))
        return 0

    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, workdir, args.tiny)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        attempted, failed, plain, traced, raw, refs = run_passes(
            workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(plain) + len(traced),
        "pass_s": plain,
        "raw_pass_s": raw,
        "reference_s": refs,
        "wall_s": statistics.median(plain) if plain else statistics.median(traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, plain, traced)
        result["per_layer"].update(engine_sweep(args.tiny))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tracer.to_json()}))
        result["spans_file"] = str(spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
