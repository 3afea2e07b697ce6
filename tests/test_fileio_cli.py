"""Serialization round-trips and the command-line surface."""

import json

import numpy as np
import pytest

from daesemi import Pencil, Signal, make_weierstrass
from daesemi.cli import main
from daesemi.errors import BadShape
from daesemi.fileio import (parse_trajectory_csv, pencil_from_dict,
                            pencil_to_dict, read_pencil, read_signal,
                            trajectory_csv, write_pencil, write_signal)


@pytest.fixture
def pencil_file(tmp_path):
    p, _ = make_weierstrass(1, 1, 1, seed=0, trivial_transforms=True)
    path = tmp_path / "p.json"
    write_pencil(path, Pencil(p.E, p.A, omega_hint=0.0, name="diag-ish"))
    return str(path)


def test_pencil_round_trip(tmp_path):
    p, _ = make_weierstrass(2, 2, 2, seed=3)
    d = pencil_to_dict(p)
    back = pencil_from_dict(d)
    assert np.array_equal(back.E, p.E) and np.array_equal(back.A, p.A)
    assert back.name == p.name


def test_pencil_file_byte_identical(tmp_path):
    p, _ = make_weierstrass(2, 1, 1, seed=4)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    write_pencil(f1, p)
    write_pencil(f2, read_pencil(f1))
    assert f1.read_bytes() == f2.read_bytes()


def test_signal_file_round_trip(tmp_path):
    sig = Signal.from_terms([([1.0, 2.0 + 1.0j], 1, -0.5 + 0.25j)])
    path = tmp_path / "f.json"
    write_signal(path, sig)
    back = read_signal(path)
    ts = np.linspace(0, 2, 7)
    assert np.allclose(back(ts), sig(ts))


def test_trajectory_csv_round_trip():
    ts = np.linspace(0, 1, 5)
    vals = np.stack([np.exp(-ts), 1j * ts], axis=1)
    text = trajectory_csv(ts, vals)
    assert text.splitlines()[0] == "t,x_0_re,x_0_im,x_1_re,x_1_im"
    ts2, vals2 = parse_trajectory_csv(text)
    assert np.array_equal(ts2, ts) and np.array_equal(vals2, vals)


def test_cli_example_then_analyze(tmp_path, capsys):
    out = str(tmp_path / "w.json")
    assert main(["example", "weierstrass", "--ns", "1", "--nn", "1",
                 "--k", "1", "-o", out]) == 0
    capsys.readouterr()
    assert main(["analyze", out]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["index"]["p_res"] == 1
    assert rep["index"]["chain_index"] == 1
    assert rep["disjointness"]["disjoint_ranE"] is True


def test_cli_verify_suites(pencil_file, capsys):
    for suite in ("lemma29", "laplace", "thm43"):
        assert main(["verify", pencil_file, "--suite", suite]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["properties"][suite]["all_passed"] is True


def test_cli_solve_diag(pencil_file, tmp_path, capsys):
    csv_path = str(tmp_path / "traj.csv")
    code = main(["solve", pencil_file, "--x0", "1,0", "--t0", "0",
                 "--t1", "5", "--steps", "100", "--csv-out", csv_path])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["solver"]["classification"] == "classical"
    ts, vals = parse_trajectory_csv(open(csv_path).read())
    assert np.abs(vals[:, 0] - np.exp(-ts)).max() < 1e-10


def test_cli_solve_inhomogeneous(pencil_file, tmp_path, capsys):
    fpath = tmp_path / "f.json"
    write_signal(fpath, Signal.from_terms([([1.0, 1.0], 0, 0.0)]))
    code = main(["solve", pencil_file, "--x0", "0,0", "--signal", str(fpath),
                 "--t1", "2", "--steps", "21"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["solver"]["classification"] == "classical"
    assert rep["solver"]["csv"].startswith("t,x_0_re")


@pytest.mark.parametrize("term", [
    {"coeff": [[float("nan"), 0.0], [1.0, 0.0]], "power": 0, "rate": [0.0, 0.0]},
    {"coeff": [[1.0, 0.0], [1.0, 0.0]], "power": float("nan"), "rate": [0.0, 0.0]},
    {"coeff": [[1.0, 0.0], [1.0, 0.0]], "power": 1, "rate": [float("inf"), 0.0]},
], ids=["coefficient", "power", "rate"])
def test_nonfinite_signal_file_rejected(pencil_file, tmp_path, capsys, term):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"terms": [term]}))
    with pytest.raises(BadShape):
        read_signal(fpath)
    assert main(["solve", pencil_file, "--x0", "0,0",
                 "--signal", str(fpath)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["--x0", "nan,0"], ["--x0", "1,inf"], ["--x0", "1,0", "--t1", "nan"],
    ["--x0", "1,0", "--t0", "-inf"]])
def test_cli_solve_rejects_nonfinite_arguments(pencil_file, capsys, args):
    assert main(["solve", pencil_file, *args]) == 2
    assert capsys.readouterr().out == ""


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_x": 2, "n_z": 2, "E": [[1, 0]], "A": [[1, 0]]}')
    assert main(["analyze", str(bad)]) == 2
    # pencil singular on the whole ray: numerical failure
    sing = tmp_path / "sing.json"
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    write_pencil(sing, Pencil(E, E.copy(), name="sing"))
    assert main(["analyze", str(sing)]) == 3
    capsys.readouterr()


def test_cli_seed_env(tmp_path, monkeypatch, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    monkeypatch.setenv("DAESEMI_SEED", "123")
    main(["example", "hamiltonian", "--n", "5", "--rank-e", "3", "-o", out1])
    main(["example", "hamiltonian", "--n", "5", "--rank-e", "3", "-o", out2])
    capsys.readouterr()
    assert open(out1).read() == open(out2).read()
    monkeypatch.setenv("DAESEMI_SEED", "124")
    out3 = str(tmp_path / "c.json")
    main(["example", "hamiltonian", "--n", "5", "--rank-e", "3", "-o", out3])
    capsys.readouterr()
    assert open(out1).read() != open(out3).read()


def test_cli_solve_auto_on_rectangular_pencil(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    assert main(["example", "transport", "--n", "4", "--m", "4",
                 "-o", path]) == 0
    capsys.readouterr()
    x0 = ",".join(["1"] * 8)
    assert main(["solve", path, "--x0", x0, "--steps", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["solver"]["method"] == "contour"
