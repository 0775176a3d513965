#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 bench/selftest.py

Runs every workload untraced and traced through `run.py --tiny`, then checks
that every metric named in BENCHMARK.json is reported with its unit, that
spans nest inside their parents within one run id, that self times are
non-negative, that no layer is busy for longer than its pass, that a wrong
value fed to an output check is counted as a failure, and that the benchmark
refuses to run without the package's sources.  Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_spans(workload: str, spans_file: str) -> None:
    from tracing import Span, busy_time, self_times

    spans = [Span(**s) for s in json.loads(Path(spans_file).read_text())["spans"]]
    by_id = {s.span_id: s for s in spans}
    nested = all(
        s.parent_id is None
        or (by_id[s.parent_id].run_id == s.run_id
            and by_id[s.parent_id].start <= s.start <= s.end <= by_id[s.parent_id].end)
        for s in spans
    )
    check(bool(spans) and nested, f"{workload}: {len(spans)} spans nest in their parents "
          "within one run id")
    selfs = self_times(spans)
    check(min(selfs.values()) >= -1e-9, f"{workload}: self times are non-negative")
    passes = [s for s in spans if s.name == "bench.pass"]
    worst = 0.0
    for p in passes:
        in_run = [s for s in spans if s.run_id == p.run_id and s.layer != "bench"]
        for layer in {s.layer for s in in_run}:
            busy = busy_time([s for s in in_run if s.layer == layer])
            worst = max(worst, busy / (p.end - p.start))
    check(bool(passes) and worst <= 1.0,
          f"{workload}: no layer busier than its pass (largest share {worst:.3f})")


def check_workloads(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in (("0", end_to_end), ("1", per_layer)):
            proc = bench_run("--workload", name, "--seed", "1", "--seconds", "1",
                             "--trace", trace, "--tiny")
            if proc.returncode != 0:
                check(False, f"{name} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {m: v["unit"] for m, v in report["metrics"].items()}
            check(set(report) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result has exactly the four keys")
            check(got == wanted, f"{name} trace={trace}: every named metric present with its "
                  f"unit (missing {sorted(set(wanted) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted))})")
            check(report["correct"] and report["failed"] == 0 and report["attempted"] >= 1,
                  f"{name} trace={trace}: {report['attempted']} operations, none failed")
            if trace == "1":
                detail = json.loads((BENCH / "out" / f"result-{name}-seed1-trace1.json")
                                    .read_text())
                check_spans(name, detail["spans_file"])


def check_fault_counted() -> None:
    """A wrong value reaching an output check must count as a failure."""
    import worker
    import workloads
    from inloop import loop, trajectories

    real_fit = trajectories.fit_decay_rate
    real_spectrum = loop.in_loop_spectrum

    def wrong_fit(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        return dataclasses.replace(fit, rate=fit.rate * 2.0)

    def wrong_spectrum(cfg, omega):
        return real_spectrum(cfg, omega) + 1e-3

    for workload, target, wrong in (
        (workloads.MarkovWide(tiny=True), trajectories, ("fit_decay_rate", wrong_fit)),
        (workloads.Analysis(tiny=True), loop, ("in_loop_spectrum", wrong_spectrum)),
    ):
        attempted, failed, *_ = worker.run_passes(workload, 1, 0.0)
        check(failed == 0, f"{workload.name}: correct values pass ({attempted} operations)")
        with mock.patch.object(target, *wrong):
            attempted, failed, *_ = worker.run_passes(workload, 1, 0.0)
        check(failed >= 1, f"{workload.name}: wrong {wrong[0]} counted, fail_frac = "
              f"{failed}/{attempted}")
    check(not workloads.decay_ok(0.2, 0.001, 0.12) and workloads.decay_ok(0.121, 0.001, 0.12)
          and not workloads.psd_ok(0.02, 0.02) and not workloads.psd_ok(0.006, 0.005),
          "check functions reject wrong values")


def check_refuses_without_sources(spec_path: Path) -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    try:
        proc = bench_run("--workload", "analysis", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"refuses to run without src/ (exit code {proc.returncode}, no result printed)")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_workloads(spec)
    check_fault_counted()
    check_refuses_without_sources(spec_path)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
