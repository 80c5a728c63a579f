"""Tests for the experiment harness: config parsing and layering, the
exit-code contract, report/manifest emission, determinism, and each
subcommand at smoke scale."""

import json

import numpy as np
import pytest

from gffforge.averaging import DEFAULT_T_GRID, DEFAULT_U_GRID, ProcessPath
from gffforge.cli import ExperimentConfig, load_config, main, parse_config_file
from gffforge.errors import ConfigError
from gffforge.excursions import ExcursionSample
from gffforge.fields import CALIBRATION, load_field


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
    p.write_text("n_samples = 500\nseed = 3\nu_grid = 1, 2, 4\ntol.mass = 0.2\n")
    cfg = load_config("excursion-mass", p, {"seed": 11})
    # experiment default eps survives, file sets n_samples, flag wins seed
    assert cfg.eps == 1e-3
    assert cfg.n_samples == 500
    assert cfg.seed == 11
    assert cfg.u_grid == (1.0, 2.0, 4.0)
    assert cfg.tol == {"mass": 0.2}
    assert load_config("excursion-mass").n_samples == 200_000


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
        ExperimentConfig(experiment="wick-fourth", u_grid=(2.0, 1.0))


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
    p.write_text("lattice_size = 16\nt_grid = 6,7,8,9\nn_samples = 50\n")
    code = main(
        ["verify", "--experiment", "char-bm-stable", "--config", str(p),
         "--output-dir", str(tmp_path / "out")]
    )
    assert code == 3


def test_bad_thread_count_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("GFFFORGE_THREADS", "many")
    assert main(["excursions", "--eps", "0.05", "--n", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: GFFFORGE_THREADS")


def test_uncreatable_output_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file\n")
    code = main(["verify", "--experiment", "wick-fourth", "--output-dir", str(blocker)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


def test_empty_grid_exits_2(tmp_path, capsys):
    assert main(["paths", "--kind", "sine", "--grid", ",", "--n", "10"]) == 2


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
    assert (out / "run1" / "hits.csv").exists()


def test_manifest_schema(excursion_run):
    out, _, _, _ = excursion_run
    man = json.loads((out / "run1" / "manifest.json").read_text())
    assert set(man) == {"experiment", "config", "version", "started_at",
                        "wall_seconds", "reports"}
    assert man["experiment"] == "excursion-mass"
    assert man["config"]["seed"] == 11
    assert man["config"]["tol"] == {"mass": 0.12, "ks": 0.06}
    assert man["wall_seconds"] > 0


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


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_sample_round_trip(tmp_path, capsys):
    f1 = tmp_path / "f1.bin"
    f2 = tmp_path / "f2.bin"
    assert main(["sample", "--law", "gff", "--size", "24", "--seed", "3",
                 "--out", str(f1)]) == 0
    assert main(["sample", "--law", "stable", "--alpha", "1.7", "--size", "24",
                 "--seed", "3", "--out", str(f2)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["sites"] > 0
    assert load_field(f1).law == "gff"
    assert load_field(f2).law == "stable"


def test_excursions_subcommand(tmp_path, capsys):
    out = tmp_path / "hits.csv"
    code = main(["excursions", "--r", "1.0", "--eps", "5e-3", "--n", "2000",
                 "--seed", "13", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["target"] == pytest.approx(4.0 / np.pi)
    assert summary["mass_estimate"] == pytest.approx(4.0 / np.pi, rel=0.2)
    assert summary["n_hits"] > 100
    assert 0.0 < summary["hit_angle_ks"] < 0.2
    records = ExcursionSample.read_records(out)
    assert sum(rec.hit for rec in records) == summary["n_hits"]


def test_calibrate_recovers_lattice_constant(capsys):
    assert main(["calibrate", "--size", "48"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["two_pi_ratio"] == pytest.approx(1.0, rel=0.05)
    assert summary["calibration_estimate"] == pytest.approx(CALIBRATION, rel=0.05)
    assert summary["builtin_calibration"] == pytest.approx(CALIBRATION)


def test_paths_subcommand_exact(tmp_path, capsys):
    out = tmp_path / "sp.csv"
    code = main(["paths", "--kind", "sine", "--grid", "1,2,4", "--n", "200",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    path = ProcessPath.from_csv(out)
    assert path.replicas.shape == (200, 3)
    assert tuple(path.grid) == (1.0, 2.0, 4.0)


def test_paths_subcommand_lattice_circle(tmp_path):
    out = tmp_path / "cp.csv"
    code = main(["paths", "--kind", "circle", "--backend", "lattice",
                 "--grid", "0.25,0.5", "--size", "32", "--n", "100",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert ProcessPath.from_csv(out).replicas.shape == (100, 2)
