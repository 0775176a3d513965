"""Command-line front end: subcommands, exit codes, config handling, and the
reproducibility contracts (golden determinism, manifest round trip)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inloop.errors import InstabilityError, ParameterError
from inloop.feedback import build_generator
from inloop.cli import build_parser, main
from inloop.loop import (
    LoopConfig, LoopFilter, assert_discrete_stable, assert_stable, lambda_from_gain,
)
from inloop.output import write_csv
from inloop.spectra import analytic_power_spectrum, numerical_power_spectrum
from inloop.squeezed_bath import build_squeezed_generator

SRC = str(Path(__file__).resolve().parents[1] / "src")
BENCH = str(Path(__file__).resolve().parents[1] / "bench")

TRAJ_CONFIG = """\
# conditioned-trajectory run
g = -19
eps = 0.95
eta = 0.8
filter = single_pole
tau = 1e-3
dt = 1e-4
duration = 0.2
n_traj = 16
phi_guard = 2e4
"""

LOOP_CONFIG = """\
g = -19
eps = 0.95
eta = 0.8
filter = rectangular
tau = 1.0
dt = 0.02
duration = 200
"""


def run_cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "inloop.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def strict_json(text):
    """Parse a report, failing on the non-JSON constants NaN and +-Infinity."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in the report")
    return json.loads(text, parse_constant=reject)


def test_rates_feedback_model(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--g", "-19", cwd=tmp_path)
    assert r.returncode == 0
    report = strict_json(r.stdout)["feedback"]
    assert abs(report["gamma_x"] - 0.12) < 1e-12
    assert report["gamma_y"] == 0.5
    assert abs(report["S_in"] - 0.05) < 1e-12
    assert abs(report["lambda"] + 0.76) < 1e-12
    assert abs(report["z_ss"] + 0.3870967741935484) < 1e-12


def test_rates_free_model(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--L", "0.05", cwd=tmp_path)
    assert r.returncode == 0
    report = strict_json(r.stdout)["free"]
    assert abs(report["gamma_x"] - 0.12) < 1e-12
    assert abs(report["gamma_y"] - 8.1) < 1e-12
    assert abs(report["N"] - 4.5125) < 1e-10
    assert abs(report["M"] + 4.9875) < 1e-10


def test_rates_natural_linewidth(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--lambda", "0", cwd=tmp_path)
    assert r.returncode == 0
    report = strict_json(r.stdout)["feedback"]
    assert (report["gamma_x"], report["gamma_y"], report["gamma_z"]) == (0.5, 0.5, 1.0)


def test_rates_requires_exactly_one_of_lambda_or_g(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--lambda", "0", "--g", "-1",
                cwd=tmp_path)
    assert r.returncode == 4
    r = run_cli("rates", "--eta", "0.8", cwd=tmp_path)
    assert r.returncode == 4
    # --eps belongs to the feedback model, which then needs its strength
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--L", "0.05", cwd=tmp_path)
    assert r.returncode == 4
    assert "--lambda or --g" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--L", "inf"], "X-quadrature level L must be positive and finite, got inf"),
        (["--eps", "0.95", "--lambda", "inf"],
         "feedback strength lam must be finite and exceed -eta = -0.8, got inf"),
        # finite inputs whose rates overflow
        (["--eps", "0.95", "--lambda", "1e200"],
         "the report is not finite: feedback.S_in = inf, feedback.gamma_x = inf"),
        (["--L", "1e-320"], "the report is not finite: free.M = -inf, free.N = inf"),
    ],
    ids=["L-inf", "lambda-inf", "lambda-1e200", "L-1e-320"],
)
def test_rates_rejects_non_finite_report_values(tmp_path, monkeypatch, capsys, args, message):
    # the report would hold Infinity or NaN, which are not JSON
    monkeypatch.chdir(tmp_path)
    assert main(["rates", "--eta", "0.8", *args]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert f"parameter error: {message}" in err
    assert main(["rates", "--eta", "0.8", *args, "--json-out", "report.json"]) == 4
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_rates_domain_error_exit_code(tmp_path):
    r = run_cli("rates", "--eta", "1.7", "--eps", "0.95", "--lambda", "0", cwd=tmp_path)
    assert r.returncode == 4
    assert "eta" in r.stderr


def test_fig2_csv(tmp_path):
    r = run_cli("fig2", "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "omega,P_inloop,P_free,P_natural"
    assert len(rows) == 1202  # header + 1201 points
    assert any("natural_scale" in c for c in comments)
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    omega, p_in = data[:, 0], data[:, 1]
    mid = np.argmin(np.abs(omega))
    assert abs(p_in[mid] - 0.0503990653) < 1e-9
    assert np.argmax(p_in) == mid
    assert np.argmax(data[:, 2]) == mid


def test_loop_spectrum_csv(tmp_path):
    r = run_cli(
        "loop-spectrum", "--eta", "0.8", "--eps", "0.95", "--g", "-19",
        "--tau", "1.0", "--omega-max", "3", "--points", "31",
        "--outdir", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 0
    rows = [l for l in (tmp_path / "loop_spectrum.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "omega,value"
    first = rows[1].split(",")
    assert abs(float(first[1]) - 0.05) < 1e-10


def test_loop_sim_outputs_and_manifest(tmp_path):
    (tmp_path / "loop.cfg").write_text(LOOP_CONFIG)
    r = run_cli("loop-sim", "--config", "loop.cfg", "--seed", "5",
                "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "psd_xin.csv").exists()
    assert (tmp_path / "psd_current.csv").exists()
    manifest = json.loads((tmp_path / "loop_manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["g"] == -19.0


def test_loop_sim_requires_seed(tmp_path):
    (tmp_path / "loop.cfg").write_text(LOOP_CONFIG)
    r = run_cli("loop-sim", "--config", "loop.cfg", "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 3


def test_spectrum_numerical(tmp_path):
    r = run_cli(
        "spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05",
        "--method", "numerical", "--points", "41", "--outdir", str(tmp_path),
        cwd=tmp_path,
    )
    assert r.returncode == 0
    rows = [l for l in (tmp_path / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "omega,value"
    assert len(rows) == 42


@pytest.mark.parametrize("method", ["analytic", "numerical"])
@pytest.mark.parametrize("model", ["feedback", "free"])
def test_spectrum_csv_matches_library(tmp_path, model, method):
    if model == "feedback":
        args = ["--eps", "0.95", "--g", "-19"]
        gen = build_generator(lambda_from_gain(-19.0, 0.8), 0.8, 0.95)
    else:
        args = ["--L", "0.05"]
        gen = build_squeezed_generator(0.8, 0.05)
    tau_max, dtau = 200.0, 2e-3
    r = run_cli(
        "spectrum", "--model", model, "--eta", "0.8", *args, "--method", method,
        "--tau-max", str(tau_max), "--dtau", str(dtau), "--points", "21",
        "--outdir", str(tmp_path), cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    table = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", comments="#", skiprows=3)
    grid = np.linspace(-3.0, 3.0, 21)
    if method == "analytic":
        spec = analytic_power_spectrum(gen.rates, 0.8, grid)
    else:
        spec = numerical_power_spectrum(gen, 0.8, grid, tau_max, dtau)
    assert np.allclose(table[:, 0], grid, rtol=1e-12, atol=0.0)
    assert np.allclose(table[:, 1], spec.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "args, csv, message",
    [
        (["loop-spectrum", "--eta", "0.8", "--eps", "0.95", "--g", "-19", "--tau", "1",
          "--omega-max", "3", "--points", "-1"],
         "loop_spectrum.csv", "--points must be at least 1, got -1"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05", "--points", "-5"],
         "spectrum.csv", "--points must be at least 1, got -5"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05", "--points", "0"],
         "spectrum.csv", "--points must be at least 1, got 0"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05",
          "--method", "numerical", "--dtau", "0"],
         "spectrum.csv", "dtau must be positive, got 0.0"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05",
          "--method", "numerical", "--dtau=-1e-3"],
         "spectrum.csv", "dtau must be positive, got -0.001"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05",
          "--method", "numerical", "--tau-max", "0"],
         "spectrum.csv", "tau_max = 0 under-resolves the slowest decay"),
        (["spectrum", "--model", "feedback", "--eta", "0.8", "--eps", "0.95", "--g", "-19",
          "--L", "0.05"],
         "spectrum.csv", "--model feedback does not take --L"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05", "--eps", "0.95",
          "--g", "-19"],
         "spectrum.csv", "--model free does not take --eps, --g"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05", "--lambda", "-0.76"],
         "spectrum.csv", "--model free does not take --lambda"),
        (["loop-spectrum", "--eta", "0.8", "--eps", "0.95", "--g", "-19", "--tau", "1",
          "--omega-min", "nan", "--omega-max", "5", "--points", "3"],
         "loop_spectrum.csv", "frequency grid bounds must be finite, got nan, 5.0"),
        (["spectrum", "--model", "free", "--eta", "0.8", "--L", "0.05", "--omega-max", "nan",
          "--points", "3"],
         "spectrum.csv", "frequency grid bounds must be finite, got nan, nan"),
        (["spectrum", "--model", "feedback", "--eta", "0.8", "--eps", "0.95", "--g", "-19",
          "--method", "numerical", "--tau-max", "nan"],
         "spectrum.csv", "tau_max must be positive and finite, got nan"),
        (["spectrum", "--model", "feedback", "--eta", "0.8", "--eps", "0.95", "--g", "-19",
          "--method", "numerical", "--tau-max", "inf"],
         "spectrum.csv", "tau_max must be positive and finite, got inf"),
        (["loop-spectrum", "--eta", "0.8", "--eps", "0.95", "--g", "-19", "--tau", "1",
          "--filter", "rectangular", "--time-constant", "0.3", "--omega-max", "3"],
         "loop_spectrum.csv", "a rectangular filter takes no time constant"),
    ],
    ids=["loop-spectrum-points", "spectrum-points", "spectrum-zero-points",
         "zero-dtau", "negative-dtau", "zero-tau-max", "feedback-with-L", "free-with-eps-g",
         "free-with-lambda", "loop-spectrum-nan-omega-min", "spectrum-nan-omega-max",
         "nan-tau-max", "inf-tau-max", "rectangular-time-constant"],
)
def test_bad_grid_arguments_are_domain_errors(tmp_path, args, csv, message):
    r = run_cli(*args, "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 4
    assert f"parameter error: {message}" in r.stderr
    assert not (tmp_path / csv).exists()


def test_trajectories_rejects_infinite_phi_guard(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG.replace("phi_guard = 2e4", "phi_guard = inf"))
    out = tmp_path / "out"
    r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4
    assert "phi_guard must be positive and finite" in r.stderr
    assert not out.exists()


def test_trajectories_golden_determinism(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG + "record_current = true\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                    "--outdir", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
    for name in ("means.csv", "current_psd.csv", "trajectories_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trajectories_manifest_round_trip(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG + "record_current = true\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                "--outdir", str(out1), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli("trajectories", "--config", str(out1 / "trajectories_manifest.json"),
                "--outdir", str(out2), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("means.csv", "current_psd.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_trajectories_unstable_config_no_partial_output(tmp_path):
    bad = TRAJ_CONFIG.replace("single_pole", "rectangular")
    (tmp_path / "bad.cfg").write_text(bad)
    out = tmp_path / "out"
    r = run_cli("trajectories", "--config", "bad.cfg", "--seed", "9",
                "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 5
    assert not (out / "means.csv").exists()


@pytest.mark.parametrize("nperseg", [0, -8, 2])
@pytest.mark.parametrize(
    "command, config",
    [
        ("loop-sim", LOOP_CONFIG.replace("duration = 200", "duration = 50")),
        ("trajectories", TRAJ_CONFIG + "record_current = true\n"),
        ("trajectories", TRAJ_CONFIG),
    ],
    ids=["loop-sim", "trajectories", "trajectories-without-current"],
)
def test_nonpositive_nperseg_is_domain_error_without_output(tmp_path, command, config, nperseg):
    (tmp_path / "run.cfg").write_text(config + f"nperseg = {nperseg}\n")
    out = tmp_path / "out"
    r = run_cli(command, "--config", "run.cfg", "--seed", "9", "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4
    assert f"parameter error: nperseg must be at least 3, got {nperseg}" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, seed",
    [("loop-sim", LOOP_CONFIG, "-5"), ("trajectories", TRAJ_CONFIG, "-1")],
    ids=["loop-sim", "trajectories"],
)
def test_negative_seed_is_domain_error_without_output(tmp_path, command, config, seed):
    (tmp_path / "run.cfg").write_text(config)
    out = tmp_path / "out"
    r = run_cli(command, "--config", "run.cfg", "--seed", seed, "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4
    assert f"parameter error: seed must be a non-negative integer, got {seed}" in r.stderr
    assert not out.exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize(
    "args, message",
    [
        (("--g", "nan", "--tau", "1"), "round-loop gain g must be finite, got nan"),
        (("--g", "-19", "--filter", "single_pole", "--tau", "nan"),
         "filter delay tau must be positive and finite, got nan"),
    ],
    ids=["g-nan", "tau-nan"],
)
def test_loop_spectrum_rejects_non_finite_parameters_without_output(tmp_path, args, message):
    out = tmp_path / "out"
    r = run_cli("loop-spectrum", "--eta", "0.8", "--eps", "0.95", *args, "--omega-max", "5",
                "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4
    assert f"parameter error: {message}" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("loop-sim", LOOP_CONFIG.replace("g = -19", "g = nan"),
         "round-loop gain g must be finite, got nan"),
        ("loop-sim", LOOP_CONFIG.replace("dt = 0.02", "dt = nan"),
         "dt and duration must be positive and finite, got nan, 200.0"),
        ("loop-sim", LOOP_CONFIG.replace("duration = 200", "duration = inf"),
         "dt and duration must be positive and finite, got 0.02, inf"),
        ("trajectories", TRAJ_CONFIG.replace("g = -19", "g = nan"),
         "round-loop gain g must be finite, got nan"),
        ("trajectories", TRAJ_CONFIG.replace("tau = 1e-3", "tau = inf"),
         "filter delay tau must be positive and finite, got inf"),
        ("trajectories", TRAJ_CONFIG.replace("dt = 1e-4", "dt = nan"),
         "dt and duration must be positive and finite, got nan, 0.2"),
        ("trajectories", TRAJ_CONFIG.replace("duration = 0.2", "duration = inf"),
         "dt and duration must be positive and finite, got 0.0001, inf"),
        ("loop-sim", LOOP_CONFIG.replace("rectangular", "exponential\ntime_constant = 0"),
         "exponential filter needs a positive, finite time constant, got 0.0"),
        ("loop-sim",
         LOOP_CONFIG.replace("rectangular", "single_pole").replace("dt = 0.02", "dt = 0.5"),
         "dt = 0.5 must be at most 0.1, a tenth of the single_pole filter's scale 1,"),
        ("loop-sim",
         LOOP_CONFIG.replace("rectangular", "exponential\ntime_constant = 1e-3")
         .replace("dt = 0.02", "dt = 0.05"),
         "dt = 0.05 must be at most 0.0004, a tenth of the exponential filter's scale 0.004,"),
    ],
    ids=["loop-sim-g", "loop-sim-dt", "loop-sim-duration", "trajectories-g",
         "trajectories-tau", "trajectories-dt", "trajectories-duration",
         "loop-sim-zero-time-constant", "loop-sim-coarse-single-pole",
         "loop-sim-coarse-exponential-time-constant"],
)
def test_non_finite_run_parameters_are_domain_errors_without_output(
    tmp_path, command, config, message
):
    (tmp_path / "run.cfg").write_text(config)
    out = tmp_path / "out"
    r = run_cli(command, "--config", "run.cfg", "--seed", "9", "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4, r.stderr
    assert f"parameter error: {message}" in r.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]


def test_missing_config_file(tmp_path):
    r = run_cli("trajectories", "--config", "nope.cfg", "--seed", "1", cwd=tmp_path)
    assert r.returncode == 1


def test_unknown_config_key(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG + "bogus_key = 3\n")
    r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 3
    assert "bogus_key" in r.stderr


def test_usage_error_exit_code(tmp_path):
    r = run_cli("trajectories", cwd=tmp_path)  # missing --config
    assert r.returncode == 2


def test_outdir_env_variable(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, INLOOP_OUTDIR=str(tmp_path / "envout"))
    r = subprocess.run(
        [sys.executable, "-m", "inloop.cli", "fig2"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert r.returncode == 0
    assert (tmp_path / "envout" / "fig2.csv").exists()


def test_loop_sim_manifest_round_trip(tmp_path):
    (tmp_path / "loop.cfg").write_text(LOOP_CONFIG.replace("duration = 200", "duration = 50"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r = run_cli("loop-sim", "--config", "loop.cfg", "--seed", "5",
                "--outdir", str(out1), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli("loop-sim", "--config", str(out1 / "loop_manifest.json"),
                "--outdir", str(out2), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (out1 / "psd_xin.csv").read_bytes() == (out2 / "psd_xin.csv").read_bytes()
    assert (out1 / "psd_current.csv").read_bytes() == (out2 / "psd_current.csv").read_bytes()


def test_loop_sim_emit_records_round_trip(tmp_path):
    config = LOOP_CONFIG.replace("duration = 200", "duration = 50") + "emit_records = true\n"
    (tmp_path / "loop.cfg").write_text(config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r = run_cli("loop-sim", "--config", "loop.cfg", "--seed", "5",
                "--outdir", str(out1), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out1 / "loop_manifest.json").read_text())
    outputs = ["current.csv", "psd_current.csv", "psd_xin.csv", "xin.csv"]
    assert manifest["outputs"] == outputs
    assert manifest["config"]["emit_records"] is True
    rows = (out1 / "xin.csv").read_text().splitlines()
    assert rows[0] == "t,value"
    assert len(rows) == 1 + 2500
    r = run_cli("loop-sim", "--config", str(out1 / "loop_manifest.json"),
                "--outdir", str(out2), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    names = sorted(f.name for f in out1.iterdir())
    assert names == sorted(outputs + ["loop_manifest.json"])
    assert sorted(f.name for f in out2.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "config",
    [LOOP_CONFIG, LOOP_CONFIG.replace("rectangular", "single_pole").replace("200", "205")],
    ids=["rectangular", "single-pole"],
)
def test_loop_sim_does_not_depend_on_blas_threads(tmp_path, config):
    # the records' SHA-256 and every output byte match between one BLAS
    # thread and the default; the single pole has 1,151 taps at this dt, and
    # its 10,250 samples end in a chunk of one block
    (tmp_path / "loop.cfg").write_text(config + "emit_records = true\n")
    code = (
        "import hashlib, sys, inloop.cli as cli; simulate = cli.simulate_classical_loop\n"
        "def traced(*args):\n"
        "    rec = simulate(*args)\n"
        "    print(hashlib.sha256(rec.x_in.tobytes() + rec.current.tobytes()).hexdigest())\n"
        "    return rec\n"
        "cli.simulate_classical_loop = traced\n"
        "assert cli.main(['loop-sim', '--config', 'loop.cfg', '--seed', '5', "
        "'--outdir', sys.argv[1]]) == 0\n"
    )
    default = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    runs = []
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                          ("default", {})):
        env = dict(default, PYTHONPATH=SRC, **threads)
        r = subprocess.run([sys.executable, "-c", code, name], capture_output=True,
                           text=True, env=env, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
        runs.append((r.stdout.splitlines()[0], files))
    assert len(runs[0][1]) == 5
    assert runs[0] == runs[1]


def _random_run_config(command: str, rng: np.random.Generator) -> dict:
    """A random config that `command` accepts: a step that resolves the
    filter, a loop that is stable, also once discretized, and every optional
    key either drawn or left out."""
    taus, steps = {
        "loop-sim": ((0.5, 2.0), (64, 3000)), "trajectories": ((0.01, 0.1), (20, 300)),
    }[command]
    while True:
        kind = str(rng.choice(["rectangular", "exponential", "single_pole"]))
        tau = float(rng.uniform(*taus))
        dt = tau / int(rng.integers(10, 41))
        run = {"g": float(rng.uniform(-5.0, 0.5)), "eps": float(rng.uniform(0.3, 1.0)),
               "eta": float(rng.uniform(0.0, 1.0)), "filter": kind, "tau": tau, "dt": dt}
        if kind == "exponential" and rng.random() < 0.5:
            run["time_constant"] = tau * float(rng.uniform(0.1, 1.0))
        filt = LoopFilter(kind, tau, time_constant=run.get("time_constant"))
        try:
            assert_stable(LoopConfig(run["g"], run["eps"], run["eta"], filt))
            assert_discrete_stable(filt, run["g"], dt)
        except (ParameterError, InstabilityError):
            continue
        break
    n = int(rng.integers(*steps))
    run["duration"] = n * dt
    if rng.random() < 0.5:
        run["nperseg"] = int(rng.integers(3, n + 1))
    if command == "loop-sim":
        run["emit_records"] = bool(rng.random() < 0.5)
        return run
    run["n_traj"] = int(rng.integers(1, 7))
    r = rng.uniform(-1.0, 1.0, 3)
    run["x0"], run["y0"], run["z0"] = (float(v) for v in r / max(1.0, np.linalg.norm(r)))
    run["record_current"] = bool(rng.random() < 0.5)
    if rng.random() < 0.5:
        run["record_stride"] = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        run["phi_guard"] = float(rng.uniform(1e3, 1e5))
    return run


@pytest.mark.parametrize("case", range(10))
@pytest.mark.parametrize("command", ["loop-sim", "trajectories"])
def test_manifest_round_trip_over_random_configs(tmp_path, command, case):
    # feeding a run's manifest back as --config reproduces every output
    # byte; the seed comes from the file or from --seed
    rng = np.random.default_rng([20, case, command == "trajectories"])
    run = _random_run_config(command, rng)
    seed = ["--seed", str(rng.integers(0, 2**31))]
    if rng.random() < 0.5:
        run["seed"], seed = int(seed[1]), []
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in run.items()))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", str(tmp_path / "run.cfg"), *seed, "--outdir", str(out1)]) == 0
    manifest = next(out1.glob("*_manifest.json"))
    assert main([command, "--config", str(manifest), "--outdir", str(out2)]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert sorted(f.name for f in out2.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_means_csv_columns(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG)
    r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                "--outdir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    rows = (tmp_path / "means.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,z,se_x,se_y,se_z"
    first = [float(v) for v in rows[1].split(",")]
    assert first[0] == 0.0 and first[3] == -1.0


def test_import_leaves_scipy_signal_and_optimize_unloaded():
    # scipy.signal and scipy.optimize dominate import time; only the
    # functions that need them import them
    code = (
        "import sys, inloop, inloop.cli; "
        "print([m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules])"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "code",
    [
        # the transform is summed in closed form per drift eigenmode
        "import sys, numpy as np; "
        "from inloop import build_squeezed_generator, numerical_power_spectrum; "
        "numerical_power_spectrum(build_squeezed_generator(0.8, 0.05), 0.8, "
        "np.linspace(-3, 3, 61), 200.0, 1e-3); "
        "print('scipy.signal' in sys.modules)",
        # the ensemble current spectrum is a numpy Welch estimate
        "import sys; from inloop.cli import main; "
        "assert main(['trajectories', '--config', 'traj.cfg', '--seed', '9', "
        "'--outdir', 'out']) == 0; "
        "print('scipy.signal' in sys.modules)",
        # the loop recursion is a blocked numpy solve
        "import sys; from inloop.cli import main; "
        "assert main(['loop-sim', '--config', 'loop.cfg', '--seed', '5', "
        "'--outdir', 'out']) == 0; "
        "print('scipy.signal' in sys.modules)",
    ],
    ids=["numerical-spectrum", "trajectories-current-psd", "loop-sim"],
)
def test_numerical_spectrum_leaves_scipy_signal_unloaded(tmp_path, code):
    # no spectrum and no loop simulation needs a routine from scipy.signal
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG + "record_current = true\n")
    (tmp_path / "loop.cfg").write_text(LOOP_CONFIG)
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_import_leaves_scipy_unloaded():
    # no module of the package imports scipy
    code = "import sys, inloop; print('scipy' in sys.modules)"
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_analysis_operations_and_numerical_spectrum_leave_scipy_unloaded(tmp_path):
    # the benchmark's analysis operations that check complete positivity
    # (a numpy propagator) and fit Lorentzian pairs (a numpy
    # Levenberg-Marquardt loop), then a numerical spectrum from the CLI
    code = (
        "import sys; from pathlib import Path; import numpy as np; "
        f"sys.path.insert(0, {BENCH!r}); import workloads; "
        "analysis = workloads.build('analysis', Path('.')); "
        "assert analysis.generators(np.random.default_rng(14)); "
        "assert analysis.fluorescence(); "
        "from inloop.cli import main; "
        "assert main(['spectrum', '--model', 'feedback', '--eta', '0.8', '--eps', '0.95', "
        "'--lambda', '-0.76', '--method', 'numerical', '--points', '41', "
        "'--outdir', 'out']) == 0; "
        "print('scipy' in sys.modules)"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_import_leaves_process_pool_modules_unloaded():
    # neither importing the package nor a wide ensemble, whose slices run in
    # forked workers, loads the process pool modules
    code = (
        "import resource, sys, inloop, inloop.cli\n"
        "from inloop.loop import LoopConfig, LoopFilter\n"
        "from inloop.trajectories import MIN_SLICE, TrajectoryConfig, run_ensemble\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in (*pool, 'mmap') if m in sys.modules])\n"
        "loop = LoopConfig(g=-3.0, eps=0.95, eta=0.8, filter=LoopFilter.rectangular(1e-2))\n"
        "run_ensemble(TrajectoryConfig(loop=loop, dt=1e-3, duration=0.02,\n"
        "                              n_traj=2 * MIN_SLICE + 37, seed=1))\n"
        "forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > 0\n"
        "print(forked, [m for m in pool if m in sys.modules])\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    imported, ensemble = r.stdout.splitlines()
    assert imported == "[]"
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the ensemble runs as one slice and forks nothing")
    assert ensemble == "True []"


def test_shared_options_reach_every_subcommand():
    parser = build_parser()
    for argv in (
        ["loop-spectrum", "--eta", "0.8", "--eps", "0.95", "--g", "-19", "--tau", "1",
         "--omega-max", "3"],
        ["spectrum", "--model", "free", "--eta", "0.8"],
        ["fig2"],
    ):
        assert parser.parse_args([*argv, "--outdir", "d"]).outdir == "d"
    for command in ("loop-sim", "trajectories"):
        args = parser.parse_args([command, "--outdir", "d", "--config", "c.cfg", "--seed", "3"])
        assert (args.outdir, args.config, args.seed) == ("d", "c.cfg", 3)


def test_write_csv_cells_are_13_digit_exponent_notation(tmp_path):
    columns = {
        "special": [np.nan, np.inf, -np.inf, -0.0, 0.0],
        "subnormal": [5e-324, -1e-310, 2.2e-308 / 3, 1.0, -2.5],
        "int": np.array([1, -2, 3, 2**40, 0]),
    }
    write_csv(tmp_path / "a.csv", columns, comments=["first", "second = 2"])
    rows = [",".join(f"{float(v):.12e}" for v in row) for row in zip(*columns.values())]
    expected = "\n".join(["# first", "# second = 2", "special,subnormal,int", *rows]) + "\n"
    assert (tmp_path / "a.csv").read_text() == expected
    assert "nan,4.940656458412e-324" in expected and "-0.000000000000e+00" in expected
    write_csv(tmp_path / "b.csv", {"x": [0.25]})
    assert (tmp_path / "b.csv").read_text() == "x\n2.500000000000e-01\n"
    write_csv(tmp_path / "c.csv", {"x": np.array([]), "y": np.array([])}, comments=["empty"])
    assert (tmp_path / "c.csv").read_text() == "# empty\nx,y\n"


# Argvs that exit 0, as "--flag=value" tokens so that a value may start with
# "-"; together they set every float option of every subcommand.
SWEEP_BASELINES = {
    "rates": [["--eta=0.8", "--eps=0.95", "--lambda=-0.76", "--L=0.05"],
              ["--eta=0.8", "--eps=0.95", "--g=-19"]],
    "loop-spectrum": [["--eta=0.8", "--eps=0.95", "--g=-19", "--filter=exponential", "--tau=1",
                       "--time-constant=0.3", "--omega-min=0", "--omega-max=3", "--points=5"]],
    "loop-sim": [],
    "spectrum": [["--model=feedback", "--eta=0.8", "--eps=0.95", "--g=-19", "--method=numerical",
                  "--tau-max=200", "--dtau=2e-3", "--omega-max=3", "--points=5"],
                 ["--model=feedback", "--eta=0.8", "--eps=0.95", "--lambda=-0.76", "--points=5"],
                 ["--model=free", "--eta=0.8", "--L=0.05", "--points=5"]],
    "fig2": [["--eta=0.8", "--eps=0.95"]],
    "trajectories": [],
}


def _float_options() -> dict:
    """Every type=float option of every subcommand, read from the parser."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a.option_strings[0] for a in p._actions if a.type is float]
        for name, p in sub.choices.items()
    }


def _non_finite_sweep():
    options = _float_options()
    for command, baselines in SWEEP_BASELINES.items():
        for i, argv in enumerate(baselines):
            for flag in options[command]:
                if not any(t.startswith(flag + "=") for t in argv):
                    continue
                for value in ("nan", "inf", "-inf"):
                    case = [f"{flag}={value}" if t.startswith(flag + "=") else t for t in argv]
                    yield pytest.param(command, case, id=f"{command}-{i}{flag}={value}")


def test_sweep_baselines_exit_0_and_set_every_float_option(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("INLOOP_OUTDIR", raising=False)
    options = _float_options()
    assert sorted(SWEEP_BASELINES) == sorted(options)
    for command, flags in options.items():
        for argv in SWEEP_BASELINES[command]:
            assert main([command, *argv]) == 0, (command, argv)
        for flag in flags:
            assert any(t.startswith(flag + "=") for argv in SWEEP_BASELINES[command]
                       for t in argv), f"no sweep baseline sets {command} {flag}"


@pytest.mark.parametrize("command, argv", list(_non_finite_sweep()))
def test_non_finite_float_options_exit_4_without_output(tmp_path, monkeypatch, capsys,
                                                        command, argv):
    # outputs default to the working directory, which must stay empty
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("INLOOP_OUTDIR", raising=False)
    assert main([command, *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parameter error: ")
    assert list(tmp_path.iterdir()) == []
