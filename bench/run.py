#!/usr/bin/env python3
"""Benchmark of the inloop package: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                  # every workload, end-to-end metrics
    python3 bench/run.py --trace 1        # every workload, per-layer metrics
    python3 bench/run.py --workload markov_wide --seed 7 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, and nothing needs installing.  With one workload the last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; with every workload it maps each workload to such an object.
Each run also writes `bench/out/result-<workload>-seed<seed>-trace<t>.json`
(metrics, provenance, pass times) and a traced run writes its spans to
`bench/out/spans-<workload>-seed<seed>.json`.  `python3 bench/selftest.py`
checks the benchmark itself at tiny sizes.

Every measurement runs in a fresh child process (`worker.py`), so set-up
and peak memory belong to one workload alone.  End-to-end metrics, from an
untraced run:

- setup_s: process start until the workload is ready (imports and inputs),
  median of several fresh starts;
- wall_s: median wall time of one workload pass, over the passes that fit
  in `--seconds`;
- peak_rss_mb: peak resident memory of the run's process;
- fail_frac: failed operations over attempted ones (also given as
  `failed` / `attempted`; it is 0 for a correct program, so it is not one
  of BENCHMARK.json's bounded metrics).

setup_s and wall_s are scaled to reference speed: the reference kernel of
`reference.py`, which does not use inloop, is timed right before and after
each start and each pass, and each time is multiplied by the kernel's
nominal time over the mean of the two readings around it.  This takes out
the drift of a shared host's speed, which is larger than the bounds, and
leaves every change of the program's own speed in place.  The raw times
are in the result file and the table.

A traced run reports the per-layer metrics: busy time and call counts per
pass for the traced public functions, work counts, each layer's self time,
errors, the trace's own overhead, an engine sweep over the three filter
modes, a one-CPU scaling reference, the import-time breakdown and the cold
start of `inloop rates`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_seconds, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("markov_wide", "current_narrow", "analysis")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 5
PROBE_REPEATS = 3
# A run must end within 180 s; children are killed past this budget.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PREFIXES = {
    "import.inloop_s": "inloop",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_linalg_s": "scipy.linalg",
}


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.startswith("trajectories.ns_per_traj_step"):
        return "ns"
    if metric.endswith("_mb"):
        return "MiB"
    if metric == "output.bytes_written":
        return "B"
    if metric == "trajectories.scaling_efficiency":
        return "ratio"
    return "count"


class Runner:
    """Starts children with `src` on PYTHONPATH and keeps every run within
    the deadline."""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        # One BLAS thread unless the caller chose otherwise: at this package's
        # matrix sizes threaded BLAS gains nothing, and its spin-waiting
        # threads turn time stolen from either CPU into noise in every timing.
        for var in BLAS_THREAD_VARS:
            self.env.setdefault(var, "1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0.0:
            raise BenchError("run exceeded its time budget")
        return left

    def call(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child to completion; returns its wall time and result."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {argv[1:4]} timed out") from exc
        return time.perf_counter() - t0, proc

    def worker(self, *args: str) -> tuple[float, str]:
        """Start `worker.py`, time it from start to its READY line, and
        return that time with the rest of its standard output."""
        argv = [sys.executable, str(WORKER), *args] + (["--tiny"] if self.tiny else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            if line.strip() != "READY":
                raise BenchError(f"worker {args[:3]} did not become ready")
            out, _ = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError):
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker {args[:3]} exited with code {proc.returncode}")
        return setup, out

    def setup_only(self, workload: str, seed: int) -> float:
        return self.worker("setup", "--workload", workload, "--seed", str(seed))[0]

    def run(self, workload: str, seed: int, seconds: float, trace: int) -> tuple[float, dict]:
        setup, out = self.worker("run", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace))
        return setup, json.loads(out.strip().splitlines()[-1])


def import_tree(text: str) -> list[tuple[str, float, list]]:
    """Parse `python -X importtime` output into (name, cumulative s,
    children) trees.  A module's line follows its children's, which are
    indented one level deeper."""
    levels: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cumulative) * 1e-6, levels.pop(depth + 1, []))
        levels.setdefault(depth, []).append(node)
    return levels.get(0, [])


def import_seconds(roots, prefix: str) -> float:
    """Cumulative import time of the modules named `prefix` or
    `prefix.*`, each counted where it was first imported."""
    total = 0.0
    for name, cumulative, children in roots:
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            total += import_seconds(children, prefix)
    return total


def probes(runner: Runner) -> tuple[dict[str, float], int, int]:
    """Per-layer metrics measured in their own processes: import breakdown,
    cold start of `inloop rates` (checked), one-CPU scaling reference."""
    repeats = 1 if runner.tiny else PROBE_REPEATS
    imports = {m: [] for m in IMPORT_PREFIXES}
    for _ in range(repeats):
        _, proc = runner.call([sys.executable, "-X", "importtime", "-c", "import inloop.cli"])
        if proc.returncode != 0:
            raise BenchError("import inloop.cli failed:\n" + proc.stderr)
        roots = import_tree(proc.stderr)
        for metric, prefix in IMPORT_PREFIXES.items():
            imports[metric].append(import_seconds(roots, prefix))
    out = {m: statistics.median(v) for m, v in imports.items()}

    attempted = failed = 0
    cold = []
    for _ in range(repeats):
        wall, proc = runner.call([sys.executable, "-m", "inloop.cli", "rates", "--eta", "0.8",
                                  "--eps", "0.95", "--g", "-19"])
        cold.append(wall)
        attempted += 1
        try:
            ok = proc.returncode == 0 and abs(
                json.loads(proc.stdout)["feedback"]["gamma_x"] - 0.12) < 1e-12
        except (ValueError, KeyError):
            ok = False
        failed += not ok
    out["cli.rates_cold_s"] = statistics.median(cold)

    steps = ["--steps", "30"] if runner.tiny else []
    times = {}
    for label, cpus in (("one", ["--one-cpu"]), ("all", [])):
        _, proc = runner.call([sys.executable, str(WORKER), "sweep-point", "--filter-mode",
                               "geometric", "--n", "10000", *steps, *cpus])
        if proc.returncode != 0:
            raise BenchError("sweep point failed:\n" + proc.stderr)
        times[label] = json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]
    nproc = len(os.sched_getaffinity(0))
    out["trajectories.scaling_efficiency"] = times["one"] / (nproc * times["all"])
    return out, attempted, failed


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seeds: dict[str, int], env: dict[str, str]) -> dict:
    why = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        why = {w["name"]: w["why"] for w in json.loads(spec.read_text())["workloads"]}
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "git_revision": git_revision(),
        "blas_threads": {k: env.get(k, "unset") for k in BLAS_THREAD_VARS},
        "workload_seeds": seeds,
        "why": why,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> tuple[dict, dict]:
    runner = Runner(tiny)
    refs, raw_setups = [reference_seconds()], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        raw_setups.append(runner.setup_only(workload, seed))
        refs.append(reference_seconds())
    setups = scaled(raw_setups, refs)
    run_setup, result = runner.run(workload, seed, seconds, trace)
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        values = dict(result["per_layer"])
        extra, probe_attempted, probe_failed = probes(runner)
        values.update(extra)
        attempted += probe_attempted
        failed += probe_failed
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    units = END_TO_END_UNITS if not trace else {m: unit_of(m) for m in values}
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in sorted(values.items())},
    }
    OUT.mkdir(exist_ok=True)
    detail = {
        **report,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fail_frac": failed / attempted,
        "passes": result["passes"],
        "pass_s": result["pass_s"],
        "raw_pass_s": result["raw_pass_s"],
        "pass_reference_s": result["reference_s"],
        "setup_runs_s": setups,
        "raw_setup_runs_s": raw_setups,
        "setup_reference_s": refs,
        "raw_run_setup_s": run_setup,
        "provenance": provenance({workload: seed}, runner.env),
    }
    if "spans_file" in result:
        detail["spans_file"] = result["spans_file"]
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    return report, detail


def print_table(details: dict[str, dict]) -> None:
    for workload, d in details.items():
        print(f"{workload:15s} {'fail_frac':42s} {d['fail_frac']:14.6g} ratio "
              f"({d['failed']}/{d['attempted']})")
        for metric, m in d["metrics"].items():
            print(f"{workload:15s} {metric:42s} {m['value']:14.6g} {m['unit']}")
        if not d["trace"]:
            for metric, raw in (("raw setup_s", d["raw_setup_runs_s"]),
                                ("raw wall_s", d["raw_pass_s"])):
                print(f"{workload:15s} {metric:42s} {statistics.median(raw):14.6g} s "
                      "(not scaled)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "inloop" / "__init__.py").is_file():
        print(f"bench: no inloop package under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.tiny)
                   for w in workloads}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_table({w: detail for w, (_, detail) in results.items()})
    reports = {w: report for w, (report, _) in results.items()}
    last = reports[args.workload] if args.workload != "all" else reports
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
