"""Serialization round-trips and the command-line surface."""

import csv
import io
import json

import numpy as np
import pytest

from daesemi import Pencil, Signal, make_weierstrass
from daesemi.cli import main
from daesemi.errors import BadShape
from daesemi.fileio import (parse_trajectory_csv, pencil_from_dict,
                            pencil_to_dict, read_pencil, read_signal,
                            trajectory_csv, write_pencil, write_signal)
from daesemi.subspaces import EIGVEC_COND_CAP


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


def _row_formatter_csv(times, values) -> str:
    """Reference writer: csv.writer with one ``.17g`` f-string per value."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t"] + [f"x_{j}_{part}" for j in range(values.shape[1])
                        for part in ("re", "im")])
    for t, row in zip(times, values):
        w.writerow([f"{t:.17g}"] + [f"{x:.17g}" for v in row
                                    for x in (v.real, v.imag)])
    return buf.getvalue()


def test_trajectory_csv_matches_row_formatter():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 2.0, 40)
    ts[1] = 5e-324
    vals = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    vals[0] = [complex(-0.0, np.nan), complex(np.inf, -np.inf),
               5e-324 + 1e-310j, 1e300 - 1e-300j]
    vals[2, :2] = [complex(np.nan, -0.0), -1e300 - 0.0j]
    assert trajectory_csv(ts, vals) == _row_formatter_csv(ts, vals)
    assert trajectory_csv(ts[:0], vals[:0]) == _row_formatter_csv(ts[:0],
                                                                  vals[:0])


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
        rep = json.loads(capsys.readouterr().out)["properties"][suite]
        assert rep["all_passed"] is True
        # lemma29 alone reports how far A_R's eigenbasis sits inside the cap
        if suite == "lemma29":
            assert 1.0 <= rep["eigvec_cond"] <= EIGVEC_COND_CAP
        else:
            assert "eigvec_cond" not in rep


def test_cli_solve_diag(pencil_file, tmp_path, capsys):
    csv_path = str(tmp_path / "traj.csv")
    code = main(["solve", pencil_file, "--x0", "1,0", "--t0", "0",
                 "--t1", "5", "--steps", "100", "--csv-out", csv_path])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["solver"]["classification"] == "classical"
    assert rep["solver"]["contours"] == {"hyperbola": 0, "line": 0}
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


def test_cli_solve_zero_signal_file(pencil_file, tmp_path, capsys):
    fpath = tmp_path / "zero.json"
    write_signal(fpath, Signal.zero(2))
    assert read_signal(fpath).shape == (2,)
    assert main(["solve", pencil_file, "--x0", "1,0", "--signal", str(fpath),
                 "--steps", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["solver"]["classification"] \
        == "classical"


@pytest.mark.parametrize("method", ["decomp", "auto", "contour"])
def test_cli_solve_inconsistent_start_matches_oracle(tmp_path, capsys,
                                                     method):
    """An inconsistent x0 keeps its differential part and takes the
    algebraic part the equation forces, as the oracle does, whichever
    method solves it."""
    p, orc = make_weierstrass(2, 2, 2, seed=1)
    path, csv_path = str(tmp_path / "w.json"), str(tmp_path / "x.csv")
    write_pencil(path, p)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert main(["solve", path, "--x0", "1,0,0,0", "--t1", "2", "--steps",
                 "21", "--method", method, "--csv-out", csv_path]) == 0
    rep = json.loads(capsys.readouterr().out)["solver"]
    assert rep["classification"] == "classical"
    assert rep["consistency"]["initial_value_error"] > 1e-2
    ts, vals = parse_trajectory_csv(open(csv_path).read())
    ref = orc.solve(x0)(ts)
    tol = 1e-9 if method == "contour" else 1e-12
    assert np.abs(vals - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_cli_analyze_at_high_index(tmp_path, capsys, k):
    path = str(tmp_path / "w.json")
    write_pencil(path, make_weierstrass(8, 8, k, seed=k % 3)[0])
    assert main(["analyze", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    dec = rep["decomposition"]
    assert (rep["index"]["p_res"], rep["index"]["chain_index"],
            dec["stagnation_k"]) == (k, k, k)
    assert (dec["dim_X_ran"], dec["dim_X_ker"]) == (8, 8)
    # one Jordan block of size k and 8 - k of size 1
    assert dec["levels_X"] == dec["levels_Z"] == [9 - k] + [1] * (k - 1)


def test_cli_solve_at_index_20(tmp_path, capsys):
    """The example pencil of index 20 solves classically from x0 = 1; the
    shifted range chain gave classification none, a classical residual of
    0.46 and an initial-value error of 8e10 here, with exit code 0."""
    path = str(tmp_path / "w.json")
    assert main(["example", "weierstrass", "--ns", "2", "--nn", "20",
                 "--k", "20", "-o", path]) == 0
    capsys.readouterr()
    assert main(["solve", path, "--x0=" + ",".join(["1"] * 22)]) == 0
    rep = json.loads(capsys.readouterr().out)["solver"]
    assert rep["classification"] == "classical"
    assert rep["classical_residual"] <= 1e-12


_TERM = {"coeff": [[1.0, 0.0], [1.0, 0.0]], "power": 1, "rate": [0.0, 0.0]}


# non-finite numbers, and layouts that once let a TypeError escape (exit 1)
@pytest.mark.parametrize("doc", [
    {"terms": [{**_TERM, "coeff": [[float("nan"), 0.0], [1.0, 0.0]]}]},
    {"terms": [{**_TERM, "power": float("nan")}]},
    {"terms": [{**_TERM, "rate": [float("inf"), 0.0]}]},
    [_TERM],
    {"terms": [{**_TERM, "coeff": [1.0, 2.0]}]},
    {"terms": [{**_TERM, "rate": 0.5}]},
    {"terms": 5},
], ids=["coefficient", "power", "rate", "top-level-list", "unpaired-coeff",
        "scalar-rate", "scalar-terms"])
def test_nonfinite_signal_file_rejected(pencil_file, tmp_path, capsys, doc):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(doc))
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


@pytest.mark.parametrize("method", ["contour", "decomp"])
def test_cli_solve_rejects_zero_steps(pencil_file, capsys, method):
    assert main(["solve", pencil_file, "--x0", "1,0", "--steps", "0",
                 "--method", method]) == 2
    assert "--steps" in capsys.readouterr().err


def test_cli_analyze_takes_one_svd_of_E(tmp_path, monkeypatch, capsys):
    path = tmp_path / "w.json"
    write_pencil(path, make_weierstrass(8, 8, 2)[0])
    E = read_pencil(path).E
    svd, calls = np.linalg.svd, []

    def counted_svd(M, *args, **kwargs):
        calls.append(M.shape == E.shape and np.array_equal(M, E))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    assert sum(calls) == 1


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_x": 2, "n_z": 2, "E": [[1, 0]], "A": [[1, 0]]}')
    assert main(["analyze", str(bad)]) == 2
    # layouts that once let a TypeError escape: a top-level list, scalars
    # where [re, im] pairs belong, and a list for a dimension
    pairs = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    for doc in ([1, 2],
                {"n_x": 2, "n_z": 2, "E": pairs, "A": [1, 2, 3, 4]},
                {"n_x": [2], "n_z": 2, "E": pairs, "A": pairs}):
        bad.write_text(json.dumps(doc))
        with pytest.raises(BadShape):
            read_pencil(bad)
        assert main(["analyze", str(bad)]) == 2
    # pencil singular on the whole ray: numerical failure
    sing = tmp_path / "sing.json"
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    write_pencil(sing, Pencil(E, E.copy(), name="sing"))
    assert main(["analyze", str(sing)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("hint", ["x", [1.0], {"re": 1.0}, float("nan")])
def test_cli_rejects_a_non_numeric_omega_hint(tmp_path, capsys, hint):
    """omega_hint, when present, is one finite number; anything else is
    BadShape (exit 2), not a TypeError from the shift (exit 1)."""
    doc = pencil_to_dict(make_weierstrass(2, 2, 2)[0])
    path = tmp_path / "w.json"
    doc["metadata"]["omega_hint"] = hint
    path.write_text(json.dumps(doc))
    with pytest.raises(BadShape, match="omega_hint"):
        read_pencil(path)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().out == ""
    for meta in ({"name": "w", "omega_hint": None}, {"name": "w"}):
        doc["metadata"] = meta
        path.write_text(json.dumps(doc))
        assert read_pencil(path).omega_hint is None
        assert main(["analyze", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["lemma29", "thm43", "laplace"])
def test_cli_verify_refuses_the_transport_closed_form(tmp_path, capsys,
                                                      suite):
    """The transport generator has no eigenbasis: every suite that reads
    the closed form is a numerical failure naming the eigenbasis gate."""
    path = str(tmp_path / "t.json")
    assert main(["example", "transport", "-o", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--suite", suite]) == 3
    assert "eigenbasis" in capsys.readouterr().err


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
    # t = 0 is the projected start and needs no contour
    assert rep["solver"]["contours"] == {"hyperbola": 2, "line": 0}
