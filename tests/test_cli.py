"""Tests for the experiment harness: config parsing and layering, the
exit-code contract, report/manifest emission, determinism, and each
subcommand at smoke scale."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import gffforge
from gffforge import verify
from gffforge.averaging import DEFAULT_T_GRID, DEFAULT_U_GRID
from gffforge.cli import ExperimentConfig, load_config, main, parse_config_file
from gffforge.errors import ConfigError
from gffforge.fields import CALIBRATION, FieldSample, dgff_matrix, sample_functionals
from gffforge.geometry import Mobius, disk_bump
from gffforge.greens import disk_lattice


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("# comment\n\n n_samples = 40  # trailing\nseed=3\n")
    assert parse_config_file(p) == {"n_samples": "40", "seed": "3"}


def test_parse_config_file_rejects_bare_lines(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("n_samples = 40\njust a line\n")
    with pytest.raises(ConfigError, match="2"):
        parse_config_file(p)


def test_load_config_layers_defaults_file_overrides(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("n_samples = 500\nseed = 3\ntol.mass = 0.2\n")
    cfg = load_config("excursion-mass", p, {"seed": 11})
    # experiment default eps survives, file sets n_samples, flag wins seed
    assert cfg.eps == 1e-3
    assert cfg.n_samples == 500
    assert cfg.seed == 11
    assert cfg.tol == {"mass": 0.2, "ks": 0.02}
    assert load_config("excursion-mass").n_samples == 200_000
    p.write_text("u_grid = 1, 2, 3, 4\n")
    assert load_config("char-bm-gff-sine", p).u_grid == (1.0, 2.0, 3.0, 4.0)


def test_load_config_rejects_experiment_mismatch(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("experiment = wick-fourth\n")
    with pytest.raises(ConfigError):
        load_config("excursion-mass", p)


def test_load_config_rejects_unknown_and_malformed_keys(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("widgets = 3\n")
    with pytest.raises(ConfigError, match="widgets"):
        load_config("excursion-mass", p)
    p.write_text("n_samples = lots\n")
    with pytest.raises(ConfigError, match="n_samples"):
        load_config("excursion-mass", p)


def test_config_field_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="wick-fourth", n_samples=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="wick-fourth", seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="char-bm-stable", alpha=2.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="excursion-mass", eps=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="char-bm-gff-sine", u_grid=(2.0, 1.0))
    with pytest.raises(ConfigError, match="t_grid must be a nonempty positive increasing list"):
        ExperimentConfig(experiment="char-bm-gff-circle", t_grid=(0.0, 0.25, 0.5, 1.0))
    with pytest.raises(ConfigError, match="n_samples must be finite"):
        ExperimentConfig(experiment="wick-fourth", n_samples=float("inf"))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        ExperimentConfig(experiment="wick-fourth", seed=1.9)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_experiment_exits_2(tmp_path, capsys):
    code = main(["verify", "--experiment", "bogus", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("widgets = 3\n")
    assert main(["verify", "--experiment", "wick-fourth", "--config", str(p)]) == 2
    assert "widgets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, text, message",
    [
        ("wick-fourth", "alpha = 1.2\n", "experiment 'wick-fourth' does not read alpha"),
        ("excursion-mass", "u_grid = 9, 10\n", "experiment 'excursion-mass' does not read u_grid"),
        ("excursion-mass", "tol.mas = 0.5\n", "experiment 'excursion-mass' does not read tol.mas"),
        ("char-bm-gff-sine", "tol.mass = 0.5\n", "experiment 'char-bm-gff-sine' does not read tol.mass"),
        ("char-bm-stable", "alpha = 0.9\n", "alpha must lie in (1, 2]"),
        # inputs the library refuses after the compute: the run writes nothing
        ("char-bm-gff-sine", "n_samples = 50\n", "characterization needs at least 100 replicas"),
        ("wick-fourth", "n_samples = 999\n", "fourth-moment test needs at least 1000 samples"),
        ("char-bm-gff-sine", "u_grid = 1,1.5,2.5,3\nn_samples = 200\n",
         "grid carries no (s, 2s, 4s) triple"),
        ("char-bm-gff-circle", "t_grid = 1,2,4\n", "characterization needs at least 4 grid points"),
        ("char-bm-stable", "t_grid = 0.25,0.3,0.4,0.6\nn_samples = 100\n",
         "grid carries no (s, 2s, 4s) triple"),
        ("excursion-mass", "n_samples = 2\neps = 0.01\nseed = 3\n", "no values to compare"),
        ("excursion-mass", "n_samples = 1\neps = 0.01\nseed = 2\n",
         "mass standard error needs at least 2 paths"),
        # NaN passes every comparison and inf every positivity check
        ("excursion-mass", "r = inf\n", "r must be finite, got inf"),
        ("excursion-mass", "tol.mass = nan\n", "tol.mass must be finite, got nan"),
        # a gate below 0 would fail every run: exit 2, not a failed check
        ("excursion-mass", "tol.mass = -0.1\n", "tol.mass must not be negative"),
        ("char-bm-gff-sine", "u_grid = 1,2,nan,8\n", "u_grid must be finite"),
    ],
    ids=["wick-alpha", "excursion-u_grid", "excursion-tol.mas", "sine-tol.mass", "stable-alpha-0.9",
         "sine-n_samples-50", "wick-n_samples-999", "sine-no-triple", "circle-3-points",
         "stable-no-triple", "excursion-no-hits", "excursion-one-path", "excursion-r-inf",
         "excursion-tol.mass-nan", "excursion-tol.mass-negative", "sine-grid-nan"],
)
def test_config_error_exits_2_before_the_output_dir(tmp_path, capsys, experiment, text, message):
    # an unread key would run silently and still be echoed in the manifest
    p = tmp_path / "x.cfg"
    p.write_text(text)
    out = tmp_path / "out"
    assert main(["verify", "--experiment", experiment, "--config", str(p),
                 "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unresolvable_circles_exit_3(tmp_path, capsys):
    # radius e^-6 is far below a 16-point lattice spacing
    code = main(
        ["paths", "--kind", "circle", "--backend", "lattice", "--grid", "6,7",
         "--size", "16", "--n", "20", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 3
    assert "fewer than 4 lattice sites" in capsys.readouterr().err


def test_verify_propagates_resolution_as_3(tmp_path, capsys):
    p = tmp_path / "res.cfg"
    # n_samples at the battery's minimum and a grid with a triple, so the
    # lattice, not the sample size or the grid, is what fails
    p.write_text("lattice_size = 16\nt_grid = 6,7,12,24\nn_samples = 100\n")
    out = tmp_path / "out"
    code = main(["verify", "--experiment", "char-bm-stable", "--config", str(p),
                 "--output-dir", str(out)])
    assert code == 3
    assert not out.exists()


def test_bad_thread_count_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GFFFORGE_THREADS", "many")
    out = tmp_path / "f.npz"
    assert main(["sample", "--size", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: GFFFORGE_THREADS")
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["r = inf", "r = nan", "eps = nan"], ids=["r-inf", "r-nan", "eps-nan"]
)
def test_excursions_nonfinite_input_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"n_samples = 10\n{line}\n")
    out = tmp_path / "out"
    argv = ["verify", "--experiment", "excursion-mass", "--config", str(cfg), "--output-dir", str(out)]
    assert main(argv) == 2
    assert f"{line.split()[0]} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["excursions", "calibrate"])
def test_removed_commands_are_invalid_choices(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_uncreatable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file\n")
    code = main(["verify", "--experiment", "wick-fourth", "--output-dir", str(blocker)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--size", "8"],
        ["paths", "--kind", "sine", "--grid", "1,2", "--n", "5"],
    ],
    ids=["sample", "paths"],
)
def test_out_in_a_missing_directory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not out.parent.exists()


def test_failed_write_after_the_output_dir_exits_2(tmp_path, capsys):
    # the directory exists, but report.json cannot be written into it
    cfg = tmp_path / "w.cfg"
    cfg.write_text("lattice_size = 24\nn_samples = 1000\nseed = 13\n")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    argv = ["verify", "--experiment", "wick-fourth", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--size", "8", "--seed", "-1"],
        ["sample", "--size", "8", "--seed", str(2**64)],
        ["verify", "--experiment", "wick-fourth", "--seed", str(2**64 + 7)],
        ["verify", "--experiment", "excursion-mass", "--seed", "-1"],
        ["paths", "--kind", "sine", "--grid", "1,2", "--n", "5", "--seed", str(2**64)],
    ],
    ids=["sample-negative", "sample-2^64", "verify-2^64+7", "excursions-negative", "paths-2^64"],
)
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, argv):
    # masked into range, such a seed would run silently as another seed
    out = tmp_path / "out"
    flag = "--output-dir" if argv[0] == "verify" else "--out"
    assert main(argv + [flag, str(out)]) == 2
    assert "seed must lie in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "sine", "--law", "stable"], "exact backend only carries the Gaussian law"),
        (["--kind", "circle", "--law", "stable"], "exact backend only carries the Gaussian law"),
        (["--kind", "sine", "--size", "16"], "--size only applies to --kind circle --backend lattice"),
        (["--kind", "circle", "--size", "16"], "--size only applies to --kind circle --backend lattice"),
        (["--kind", "sine", "--backend", "lattice", "--size", "16"], "--size only applies"),
        (["--kind", "sine", "--alpha", "1.9"], "--alpha only applies to --law stable"),
        (["--kind", "circle", "--backend", "lattice", "--law", "gff", "--alpha", "1.5"],
         "--alpha only applies to --law stable"),
    ],
    ids=["sine-exact-stable", "circle-exact-stable", "sine-exact-size", "circle-exact-size",
         "sine-lattice-size", "sine-exact-alpha", "circle-lattice-gff-alpha"],
)
def test_paths_rejects_options_it_would_ignore(tmp_path, capsys, argv, message):
    # an ignored option would silently write another path than the one asked for
    out = tmp_path / "p.csv"
    assert main(["paths", *argv, "--grid", "1,2", "--n", "5", "--seed", "3", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_empty_grid_exits_2(tmp_path, capsys):
    assert main(["paths", "--kind", "sine", "--grid", ",", "--n", "10"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", "1,x", "--n", "5"], "bad value for --grid: '1,x'"),
        (["--grid", "1,2", "--n", "-1"], "replica count must be nonnegative"),
        (["--grid", "1,2", "--n", "-1", "--backend", "lattice"], "replica count must be nonnegative"),
        (["--grid", "1,nan", "--n", "3"], "--grid must be finite"),
        (["--grid", "1,inf", "--n", "3"], "--grid must be finite"),
    ],
    ids=["bad-grid-entry", "negative-n-exact", "negative-n-lattice", "nan-grid-entry",
         "inf-grid-entry"],
)
def test_paths_malformed_input_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "p.csv"
    assert main(["paths", "--kind", "sine", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_failing_tolerance_exits_1(tmp_path):
    p = tmp_path / "f.cfg"
    p.write_text("n_samples = 2000\neps = 5e-3\ntol.mass = 1e-9\n")
    code = main(
        ["verify", "--experiment", "excursion-mass", "--config", str(p),
         "--output-dir", str(tmp_path / "out"), "--seed", "11"]
    )
    assert code == 1
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert not rep[0]["passed"]


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def excursion_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exc")
    cfg = out / "exc.cfg"
    cfg.write_text("n_samples = 3000\neps = 5e-3\ntol.mass = 0.12\ntol.ks = 0.06\n")
    argv = ["verify", "--experiment", "excursion-mass", "--config", str(cfg),
            "--output-dir", str(out / "run1"), "--seed", "11"]
    code = main(argv)
    return out, cfg, argv, code


def test_excursion_experiment_report(excursion_run):
    out, _, _, code = excursion_run
    assert code == 0
    rep = json.loads((out / "run1" / "report.json").read_text())
    assert [r["name"] for r in rep] == ["excursion_mass", "hit_angle_ks"]
    assert all(r["passed"] for r in rep)
    assert rep[0]["mass_estimate"] == pytest.approx(4.0 / np.pi, rel=0.12)
    assert rep[0]["mass_stderr"] > 0
    # hits.csv carries one "1," row per hit the KS statistic read
    rows = (out / "run1" / "hits.csv").read_text().splitlines()
    assert rows[0] == "hit,angle,eps,weight"
    assert sum(row.startswith("1,") for row in rows[1:]) == rep[1]["n_samples"] > 100


def test_manifest_schema(excursion_run, openblas_on_two_threads, tmp_path):
    out, _, _, _ = excursion_run
    man = json.loads((out / "run1" / "manifest.json").read_text())
    assert set(man) == {"experiment", "config", "version", "started_at",
                        "wall_seconds", "machine", "reports"}
    assert set(man["machine"]) == {"cpu_count", "threads", "python", "numpy", "scipy", "openblas_threads"}
    blas = man["machine"]["openblas_threads"]
    assert set(blas) == {"numpy", "scipy"}
    assert all(n is None or n >= 1 for n in blas.values())
    assert man["machine"]["threads"] >= 1
    assert man["machine"]["numpy"] == np.__version__
    assert man["experiment"] == "excursion-mass"
    assert man["config"]["seed"] == 11
    assert man["config"]["tol"] == {"mass": 0.12, "ks": 0.06}
    assert man["wall_seconds"] > 0
    # a run that pins every OpenBLAS pool to one thread records the counts
    # in force before it, not the pinned 1, and leaves them as they were
    pools = openblas_on_two_threads
    cfg = tmp_path / "sine.cfg"
    cfg.write_text("n_samples = 100\n")
    main(["verify", "--experiment", "char-bm-gff-sine", "--config", str(cfg),
          "--output-dir", str(tmp_path / "sine")])
    blas = json.loads((tmp_path / "sine" / "manifest.json").read_text())["machine"]["openblas_threads"]
    assert {name: blas[name] for name in pools} == dict.fromkeys(pools, 2)
    assert {name: get() for name, (get, _) in pools.items()} == dict.fromkeys(pools, 2)


def test_same_config_same_report_bytes(excursion_run):
    out, cfg, _, _ = excursion_run
    argv = ["verify", "--experiment", "excursion-mass", "--config", str(cfg),
            "--output-dir", str(out / "run2"), "--seed", "11"]
    assert main(argv) == 0
    b1 = (out / "run1" / "report.json").read_bytes()
    b2 = (out / "run2" / "report.json").read_bytes()
    assert b1 == b2
    m1 = json.loads((out / "run1" / "manifest.json").read_text())
    m2 = json.loads((out / "run2" / "manifest.json").read_text())
    for m in (m1, m2):
        m.pop("started_at")
        m.pop("wall_seconds")
        m["config"].pop("output_dir")
    assert m1 == m2


def test_wick_experiment_smoke(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("n_samples = 2000\nlattice_size = 32\n")
    code = main(["verify", "--experiment", "wick-fourth", "--config", str(p),
                 "--output-dir", str(tmp_path / "out"), "--seed", "5"])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(rep[0]["statistic"]) <= 0.15
    assert (tmp_path / "out" / "pairings.csv").exists()


def test_wick_manifest_records_exactly_its_keys(tmp_path):
    p = tmp_path / "w.cfg"
    p.write_text("n_samples = 1000\nlattice_size = 16\n")
    out = tmp_path / "out"
    main(["verify", "--experiment", "wick-fourth", "--config", str(p),
          "--output-dir", str(out), "--seed", "5"])
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"] == {"seed": 5, "output_dir": str(out), "n_samples": 1000,
                             "lattice_size": 16}


@pytest.mark.parametrize("t_grid", [None, DEFAULT_T_GRID])
def test_circle_experiment_runs_on_the_recorded_grid(tmp_path, t_grid):
    p = tmp_path / "c.cfg"
    text = "n_samples = 200\n"
    if t_grid is not None:
        text += "t_grid = " + ",".join(repr(v) for v in t_grid) + "\n"
    p.write_text(text)
    main(["verify", "--experiment", "char-bm-gff-circle", "--config", str(p),
          "--output-dir", str(tmp_path / "out"), "--seed", "3"])
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    header = np.loadtxt(tmp_path / "out" / "circle_path.csv", delimiter=",", max_rows=1)
    assert man["config"]["t_grid"] == header.tolist()
    assert header.tolist() == list(DEFAULT_U_GRID if t_grid is None else t_grid)


def test_conformal_experiment_smoke(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("n_samples = 300\nlattice_size = 48\n")
    code = main(["verify", "--experiment", "conformal-rotation", "--config", str(p),
                 "--output-dir", str(tmp_path / "out"), "--seed", "9"])
    assert code == 0


def test_conformal_experiment_at_the_largest_seed(tmp_path, monkeypatch):
    # the image side draws from the next seed, which wraps to 0 here.  The
    # 50-sample KS verdict at this seed is a chance outcome, so the report
    # is checked against a direct call and the exit code against the report
    seed = 2**64 - 1
    drawn = []

    def spy(lat, W, n, seed, *args):
        drawn.append(seed)
        return sample_functionals(lat, W, n, seed, *args)

    monkeypatch.setattr(verify, "sample_functionals", spy)
    p = tmp_path / "c.cfg"
    p.write_text("n_samples = 50\nlattice_size = 24\n")
    out = tmp_path / "out"
    code = main(["verify", "--experiment", "conformal-rotation", "--config", str(p),
                 "--output-dir", str(out), "--seed", str(seed)])
    assert drawn == [seed, 0]
    (rep,) = json.loads((out / "report.json").read_text())
    direct = verify.test_conformal_invariance(
        "gff", Mobius(np.exp(1j * np.pi / 3.0), 0, 0, 1), disk_bump(0.25 + 0.1j, 0.35), 50,
        seed, lattice_src=disk_lattice(24)
    )
    assert rep == json.loads(json.dumps(asdict(direct)))
    assert rep["name"] == "conformal[gff]"
    assert code == (0 if rep["passed"] else 1)


# Runs the CLI on argv[2:] with both OpenBLAS pools set to argv[1] threads
# after the import-time pin, as a caller who raises them would.
_CLI_WITH_BLAS = """import sys
from gffforge import cli, rng
for api in rng._OPENBLAS.values():
    if api is not None:
        api[1](int(sys.argv[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


def test_lattice_functionals_ignore_thread_and_blas_settings(tmp_path):
    # the Gram root of the Gaussian functionals comes from a LAPACK QR, so
    # a small wick-fourth (one column), a lattice circle path (three) and a
    # sine path (eight columns on the 147,153-site box of the grid 1..4)
    # must write the same bytes at any GFFFORGE_THREADS and OpenBLAS thread
    # count.  On 2 cores OpenBLAS splits that sine QR over both threads
    # (CPU time twice the wall time from 6 columns up); below it runs on one.
    # A small sine battery pools 2,000 increment pairs into a distance
    # correlation capped at 800, whose permutation moments take an 800 x 800
    # matrix product, and its report must not depend on the thread counts
    # either.  The disk-32 band (bandwidth 31) stays on LAPACK's unblocked
    # dpbtf2 path; the disk-96 band (bandwidth 95) takes dpbtrf's blocked,
    # level-3 path, whose BLAS calls OpenBLAS may spread over threads.
    src = str(Path(gffforge.__file__).resolve().parents[1])
    cfg = tmp_path / "w.cfg"
    cfg.write_text("lattice_size = 24\nn_samples = 1000\nseed = 13\n")
    sine_cfg = tmp_path / "s.cfg"
    sine_cfg.write_text("n_samples = 200\nseed = 13\n")
    outputs = []
    for threads in ("1", "2"):
        for blas in ("1", "2"):
            env = {**os.environ, "GFFFORGE_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / f"t{threads}-b{blas}"
            for argv in (
                ["verify", "--experiment", "wick-fourth", "--config", str(cfg), "--output-dir", str(out)],
                ["verify", "--experiment", "char-bm-gff-sine", "--config", str(sine_cfg),
                 "--output-dir", str(out / "sine")],
                ["paths", "--kind", "circle", "--backend", "lattice", "--size", "32", "--grid", "0.25,0.5,1",
                 "--n", "200", "--seed", "13", "--out", str(out / "circle.csv")],
                ["paths", "--kind", "circle", "--backend", "lattice", "--size", "96", "--grid", "0.25,0.5,1",
                 "--n", "200", "--seed", "13", "--out", str(out / "circle96.csv")],
                ["paths", "--kind", "sine", "--backend", "lattice", "--grid", "1,1.25,1.5,2,2.5,3,3.5,4",
                 "--n", "8", "--seed", "13", "--out", str(out / "sine.csv")],
            ):
                done = subprocess.run([sys.executable, "-c", _CLI_WITH_BLAS, blas, *argv], env=env,
                                      capture_output=True)
                assert done.returncode in (0, 1), done.stderr
            used = json.loads((out / "sine" / "manifest.json").read_text())["machine"]["openblas_threads"]
            assert all(n in (int(blas), None) for n in used.values())
            names = ("pairings.csv", "report.json", "sine/report.json", "circle.csv", "circle96.csv", "sine.csv")
            outputs.append([(out / name).read_bytes() for name in names])
    assert all(o == outputs[0] for o in outputs[1:])


@pytest.mark.parametrize("env_threads", [None, "2"])
@pytest.mark.parametrize("module", ["gffforge", "gffforge.geometry", "gffforge.cli"])
def test_import_pins_both_openblas_pools_to_one_thread(module, env_threads):
    # whichever gffforge module a program imports first, the import leaves
    # numpy's and scipy's OpenBLAS on one thread, also against
    # OPENBLAS_NUM_THREADS; a pool that is not OpenBLAS reads None
    src = str(Path(gffforge.__file__).resolve().parents[1])
    code = (f"import json, sys, {module}; assert 'gffforge.rng' in sys.modules; "
            "print(json.dumps(sys.modules['gffforge.rng'].openblas_threads()))")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert set(counts) == {"numpy", "scipy"}
    assert all(n in (1, None) for n in counts.values())


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time of every gffforge process;
    # only two battery tests use it, and they import it themselves
    src = str(Path(gffforge.__file__).resolve().parents[1])
    code = "import sys, gffforge.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _defines_all(info):
    return hasattr(importlib.import_module(f"gffforge.{info.name}"), "__all__")


@pytest.mark.parametrize(
    "name", [info.name for info in pkgutil.iter_modules(gffforge.__path__) if _defines_all(info)]
)
def test_all_lists_exactly_the_public_names(name):
    # every listed name exists, and the listed functions and classes are
    # exactly the module's own public ones; other entries are constants
    mod = importlib.import_module(f"gffforge.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []

    def is_code(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    own = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_") and is_code(obj) and obj.__module__ == mod.__name__
    }
    listed = {n for n in mod.__all__ if is_code(getattr(mod, n))}
    assert listed == own


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_sample_round_trip(tmp_path, capsys):
    # np.savez given a path would append .npz; the file is --out exactly
    f1 = tmp_path / "f1.bin"
    f2 = tmp_path / "f2.bin"
    again = tmp_path / "again.bin"
    assert main(["sample", "--law", "gff", "--size", "24", "--seed", "3",
                 "--out", str(f1)]) == 0
    assert main(["sample", "--law", "stable", "--alpha", "1.7", "--size", "24",
                 "--seed", "3", "--out", str(f2)]) == 0
    assert main(["sample", "--law", "gff", "--size", "24", "--seed", "3",
                 "--out", str(again)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["sites"] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.bin", "f1.bin", "f2.bin"]
    assert f1.read_bytes() == again.read_bytes()

    lat = disk_lattice(24)
    grid, i0, j0 = FieldSample(lat, dgff_matrix(lat, 1, 3)[:, 0]).grid()
    with np.load(f1) as gff:
        assert sorted(gff.files) == sorted(
            ["values", "spacing", "i0", "j0", "law", "alpha", "seed", "calibration"]
        )
        assert np.array_equal(gff["values"], grid)
        assert (gff["i0"], gff["j0"]) == (i0, j0)
        assert gff["spacing"] == lat.spacing
        assert (str(gff["law"]), gff["alpha"], gff["seed"]) == ("gff", 2.0, 3)
        assert gff["calibration"] == CALIBRATION
    with np.load(f2) as stable:
        assert (str(stable["law"]), stable["alpha"], stable["seed"]) == ("stable", 1.7, 3)
        assert stable["values"].shape == grid.shape
        assert not np.array_equal(stable["values"], grid)


def test_sample_alpha_only_with_stable_law(tmp_path, capsys):
    out = tmp_path / "f.bin"
    assert main(["sample", "--alpha", "1.9", "--size", "8", "--out", str(out)]) == 2
    assert "--alpha only applies to --law stable" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sample", "--law", "stable", "--size", "8", "--out", str(out)]) == 0
    with np.load(out) as field:
        assert str(field["law"]) == "stable" and field["alpha"] == 1.5


def test_paths_subcommand_exact(tmp_path, capsys):
    out = tmp_path / "sp.csv"
    code = main(["paths", "--kind", "sine", "--grid", "1,2,4", "--n", "200",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    data = np.loadtxt(out, delimiter=",", ndmin=2)
    assert data[1:].shape == (200, 3)
    assert tuple(data[0]) == (1.0, 2.0, 4.0)


def test_paths_subcommand_lattice_circle(tmp_path):
    out = tmp_path / "cp.csv"
    code = main(["paths", "--kind", "circle", "--backend", "lattice",
                 "--grid", "0.25,0.5", "--size", "32", "--n", "100",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert np.loadtxt(out, delimiter=",", ndmin=2)[1:].shape == (100, 2)
