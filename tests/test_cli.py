"""Command-line interface round trips."""
import json
import math

import numpy as np
import pytest

from templevy.charexp import phi_on_points
from templevy.cli import main
from templevy.density import GridSpec, auto_grid
from templevy.envelope import EnvelopeSpec, spec_to_dict
from templevy.model import cauchy_model, model_to_dict, poly_model, save_model
from templevy.profiles import PolyTempered


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(cauchy_model(), path)
    return str(path)


def test_phi_subcommand(model_path, capsys):
    assert main(["phi", "--model", model_path, "--xi", "3.0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    cells = out[-1].split(",")
    assert float(cells[0]) == 3.0
    assert float(cells[-1]) == pytest.approx(3.0 * math.pi, rel=1e-8)


@pytest.mark.parametrize("model", [cauchy_model(), poly_model(3.0, 1.5, d=2)],
                         ids=["d1", "d2"])
def test_phi_grid_prints_every_dual_node(model, tmp_path, capsys):
    mp = tmp_path / "model.json"
    save_model(model, mp)
    assert main(["phi", "--model", str(mp), "--grid", "8,64"]) == 0
    rows = np.array([[float(c) for c in line.split(",")] for line in
                     capsys.readouterr().out.strip().splitlines()])
    ax = GridSpec(model.d, 8.0, 64).xi_axis()
    pts = np.stack(np.meshgrid(*(ax,) * model.d, indexing="ij"),
                   axis=-1).reshape(-1, model.d)
    assert rows.shape == (64 ** model.d, model.d + 1)
    np.testing.assert_array_equal(rows[:, :-1], pts)
    np.testing.assert_array_equal(rows[:, -1], phi_on_points(model, pts))


def test_density_pointwise(model_path, capsys):
    assert main(["density", "--model", model_path, "--t", "1.0",
                 "--x", "2.0"]) == 0
    out = capsys.readouterr().out
    val = float(out.strip().splitlines()[-1].split(",")[-1])
    assert val == pytest.approx(1.0 / (4.0 + math.pi ** 2), rel=1e-8)


def test_density_grid_csv_and_cache(model_path, tmp_path, capsys):
    out_csv = tmp_path / "dens.csv"
    cache = tmp_path / "dens.tlvd"
    code = main(["density", "--model", model_path, "--t", "0.5",
                 "--grid", "64,4096", "--out", str(out_csv),
                 "--cache", str(cache)])
    assert code == 0
    assert out_csv.exists() and cache.exists()
    assert cache.read_bytes()[:4] == b"TLVD"
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 4096 + 1


def test_density_csv_to_stdout(model_path, tmp_path, monkeypatch, capsys):
    # without --out or --x the CSV goes to standard output, not to a file
    monkeypatch.chdir(tmp_path)
    assert main(["density", "--model", model_path, "--t", "1.0",
                 "--grid", "64,256"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,p"
    assert len(lines) == 256 + 1
    assert not (tmp_path / "<stdout>").exists()


def test_decompose_csv(tmp_path, capsys):
    mp = tmp_path / "poly.json"
    save_model(poly_model(3.0, 1.0), mp)
    out_csv = tmp_path / "parts.csv"
    code = main(["decompose", "--model", str(mp), "--t", "0.5",
                 "--grid", "128,8192", "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    header, *rows = text.splitlines()
    assert header.split(",") == ["x", "p_local", "p_cp_ac", "p_recomposed",
                                 "p_direct", "abs_diff"]
    assert len(rows) == 8192 and text.endswith("\n")
    # each value as f"{v:.17g}", which reads back exactly
    for row in rows[::97]:
        vals = [float(v) for v in row.split(",")]
        assert row == ",".join(f"{v:.17g}" for v in vals)
        assert vals[5] == abs(vals[3] - vals[4])
    err = capsys.readouterr().err
    assert "tail_bound=" in err and "overflow=" in err


def test_decompose_default_grid(tmp_path, capsys):
    # without --grid every part lives on auto_grid(model, t): the small-jump
    # grid is too narrow for the big jumps at this t
    mp = tmp_path / "poly.json"
    save_model(poly_model(3.0, 1.0), mp)
    out_csv = tmp_path / "parts.csv"
    assert main(["decompose", "--model", str(mp), "--t", "0.1",
                 "--out", str(out_csv)]) == 0
    parts = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert len(parts) == auto_grid(poly_model(3.0, 1.0), 0.1).N
    # recomposed against direct, relative to the peak
    assert parts[:, 5].max() < 1e-3 * parts[:, 4].max()


def test_envelope_subcommand(tmp_path, capsys):
    spec = EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(2.0))
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec_to_dict(spec)))
    assert main(["envelope", "--spec", str(sp), "--t", "0.25",
                 "--x", "4.0"]) == 0
    out = capsys.readouterr().out
    val = float(out.strip().splitlines()[-1].split(",")[-1])
    assert val == pytest.approx(6.25e-4, rel=1e-10)


def test_simulate_csv(model_path, tmp_path, capsys):
    out_csv = tmp_path / "samples.csv"
    args = ["simulate", "--model", model_path, "--t", "1.0",
            "--eps", "0.1", "--n", "50", "--seed", "1"]
    code = main(args + ["--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    rows = text.strip().splitlines()
    assert len(rows) == 50 + 1 and rows[0] == "x1"
    for row in rows[1:]:
        assert row == ",".join(f"{float(v):.17g}" for v in row.split(","))
    # without --out the same CSV goes to standard output
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == text


def test_verify_subcommand(tmp_path):
    spec = EnvelopeSpec(side="upper", regime="small_t", d=1, alpha=1.0,
                        gamma=1.0, profile=PolyTempered(3.0))
    suite = {"suite_id": "mini", "checks": [{
        "kind": "upper", "model": model_to_dict(poly_model(3.0, 1.0)),
        "spec": spec_to_dict(spec), "t_set": [0.5],
        "radii": [0.5, 1.0, 2.0, 4.0]}]}
    sp = tmp_path / "suite.json"
    sp.write_text(json.dumps(suite))
    out_dir = tmp_path / "reports"
    code = main(["verify", "--suite", str(sp), "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["results"][0]["verdict"] == "PASS"
