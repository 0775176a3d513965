"""Command-line front end: subcommands, exit codes, config handling, and the
reproducibility contracts (golden determinism, manifest round trip)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inloop.feedback import build_generator
from inloop.loop import lambda_from_gain
from inloop.spectra import analytic_power_spectrum, numerical_power_spectrum
from inloop.squeezed_bath import build_squeezed_generator

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def test_rates_feedback_model(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--g", "-19", cwd=tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)["feedback"]
    assert abs(report["gamma_x"] - 0.12) < 1e-12
    assert report["gamma_y"] == 0.5
    assert abs(report["S_in"] - 0.05) < 1e-12
    assert abs(report["lambda"] + 0.76) < 1e-12
    assert abs(report["z_ss"] + 0.3870967741935484) < 1e-12


def test_rates_free_model(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--L", "0.05", cwd=tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)["free"]
    assert abs(report["gamma_x"] - 0.12) < 1e-12
    assert abs(report["gamma_y"] - 8.1) < 1e-12
    assert abs(report["N"] - 4.5125) < 1e-10
    assert abs(report["M"] + 4.9875) < 1e-10


def test_rates_natural_linewidth(tmp_path):
    r = run_cli("rates", "--eta", "0.8", "--eps", "0.95", "--lambda", "0", cwd=tmp_path)
    assert r.returncode == 0
    report = json.loads(r.stdout)["feedback"]
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
    ],
    ids=["loop-spectrum-points", "spectrum-points", "spectrum-zero-points",
         "zero-dtau", "negative-dtau", "zero-tau-max", "feedback-with-L", "free-with-eps-g",
         "free-with-lambda"],
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
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                    "--outdir", str(out), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
    assert (out1 / "means.csv").read_bytes() == (out2 / "means.csv").read_bytes()
    assert (out1 / "trajectories_manifest.json").read_bytes() == (
        out2 / "trajectories_manifest.json"
    ).read_bytes()


def test_trajectories_manifest_round_trip(tmp_path):
    (tmp_path / "traj.cfg").write_text(TRAJ_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    r = run_cli("trajectories", "--config", "traj.cfg", "--seed", "9",
                "--outdir", str(out1), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli("trajectories", "--config", str(out1 / "trajectories_manifest.json"),
                "--outdir", str(out2), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (out1 / "means.csv").read_bytes() == (out2 / "means.csv").read_bytes()


def test_trajectories_unstable_config_no_partial_output(tmp_path):
    bad = TRAJ_CONFIG.replace("single_pole", "rectangular")
    (tmp_path / "bad.cfg").write_text(bad)
    out = tmp_path / "out"
    r = run_cli("trajectories", "--config", "bad.cfg", "--seed", "9",
                "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 5
    assert not (out / "means.csv").exists()


@pytest.mark.parametrize("nperseg", [0, -8])
@pytest.mark.parametrize(
    "command, config",
    [
        ("loop-sim", LOOP_CONFIG.replace("duration = 200", "duration = 50")),
        ("trajectories", TRAJ_CONFIG + "record_current = true\n"),
    ],
    ids=["loop-sim", "trajectories"],
)
def test_nonpositive_nperseg_is_domain_error_without_output(tmp_path, command, config, nperseg):
    (tmp_path / "run.cfg").write_text(config + f"nperseg = {nperseg}\n")
    out = tmp_path / "out"
    r = run_cli(command, "--config", "run.cfg", "--seed", "9", "--outdir", str(out), cwd=tmp_path)
    assert r.returncode == 4
    assert f"parameter error: nperseg must be at least 1, got {nperseg}" in r.stderr
    assert not out.exists()


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


def test_numerical_spectrum_leaves_scipy_signal_unloaded():
    # the transform is summed in closed form per drift eigenmode, so a call
    # needs no signal-processing routine
    code = (
        "import sys, numpy as np; "
        "from inloop import build_squeezed_generator, numerical_power_spectrum; "
        "numerical_power_spectrum(build_squeezed_generator(0.8, 0.05), 0.8, "
        "np.linspace(-3, 3, 61), 200.0, 1e-3); "
        "print('scipy.signal' in sys.modules)"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_import_leaves_process_pool_modules_unloaded():
    # only wide ensembles, which run on forked workers, import the pool
    code = (
        "import sys, inloop, inloop.cli; print([m for m in "
        "('multiprocessing', 'concurrent.futures.process', 'mmap') if m in sys.modules])"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
