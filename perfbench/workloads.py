"""The four workloads: inputs made from a seed, timed operations, checks.

A workload is a round of slots, run in order and repeated until the run's
time is up, so every run attempts whole rounds.  Each slot makes a fresh
input (untimed), runs one operation on it (timed) and checks the output
(untimed).  No two operations of a run share a pencil.

Operations of one ``kind`` share a median; ``small_op_s`` and
``large_op_s`` average the per-kind medians of their size class.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import refs
from refs import CONTOUR_TOL, EXACT_TOL, require, require_close

FULL_TIMES = np.linspace(0.0, 5.0, 51)
CONTOUR_TIMES = {16: np.linspace(0.25, 1.5, 6), 64: np.array([0.5, 1.0, 1.5])}
CLI_STEPS = 2000
CLI_T1 = 5.0
TRANSPORT = (24, 24)
TRANSPORT_STEPS = 4
HAMILTONIAN = (8, 4)
CP_TIMES = (0.3, 1.0, 2.5)
# exp-polynomial and oscillating forcing: c1 t e^{-t/2} + c2 e^{2it} + c3 e^{-2it}
FORCING_SHAPE = ((1, -0.5), (0, 2j), (0, -2j))


@dataclass
class Case:
    """One operation's input, its reference and the files it owns."""

    args: dict
    ref: Any = None
    expect: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    def cleanup(self) -> None:
        for path in self.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


@dataclass(frozen=True)
class Slot:
    kind: str
    size: str  # "small" or "large"
    make: Callable  # (api, rng, prefix) -> Case
    run: Callable   # (api, Case) -> output, the timed operation
    check: Callable  # (Case, output) -> None, raises refs.CheckFailed


def _cvec(rng, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _seed_of(rng) -> int:
    return int(rng.integers(2 ** 63))


def _weierstrass(api, rng, n_s, n_n, k):
    return api.ds.make_weierstrass(n_s, n_n, k, seed=_seed_of(rng))


def _forcing(rng, n: int):
    return [(_cvec(rng, n), m, a) for m, a in FORCING_SHAPE]


# -- full-solve ------------------------------------------------------------

def _make_full(n: int, k: int):
    def make(api, rng, prefix):
        pen, orc = _weierstrass(api, rng, n // 2, n // 2, k)
        forcing = _forcing(rng, n)
        ref = refs.weierstrass_solution(orc, _cvec(rng, n // 2), forcing, FULL_TIMES)
        f = api.ds.Signal.from_terms(forcing)
        return Case({"pencil": pen, "x0": ref[0], "f": f}, ref=ref)
    return make


def _run_full(api, case):
    a = case.args
    return api.ds.solve_full(a["pencil"], a["x0"], a["f"], FULL_TIMES)


def _check_full(case, traj):
    require_close(traj.values, case.ref, EXACT_TOL, "solve_full trajectory")


# -- contour-solve ---------------------------------------------------------

def _make_contour(n: int, k: int):
    def make(api, rng, prefix):
        pen, orc = _weierstrass(api, rng, n // 2, n // 2, k)
        ts = CONTOUR_TIMES[n]
        u1_0 = _cvec(rng, n // 2)
        ref = refs.weierstrass_solution(orc, u1_0, [], ts)
        x0 = refs.weierstrass_start(orc, u1_0, [])
        return Case({"pencil": pen, "x0": x0, "ts": ts}, ref=ref)
    return make


def _run_contour(api, case):
    a = case.args
    return api.ds.solve_homogeneous(a["pencil"], a["x0"], a["ts"], method="contour")


def _check_contour(case, traj):
    require_close(traj.values, case.ref, CONTOUR_TOL, "contour trajectory")


# -- semigroup-verify ------------------------------------------------------

SEMIGROUP_K = 2


def _make_semigroup(rank: int, n_n: int):
    def make(api, rng, prefix):
        pen, orc = _weierstrass(api, rng, rank, n_n, SEMIGROUP_K)
        p = SEMIGROUP_K + 1
        grid = (0.1, 0.5, 1.0, 2.0)
        basis = np.linalg.inv(orc.S)[:, :rank]  # x-space basis of the range space
        ref = [basis @ refs.integrated_propagator(orc.J, p, t) for t in grid]
        return Case({"pencil": pen}, ref=ref,
                    expect={"p": p, "rank": rank, "grid": grid, "basis": basis})
    return make


def _run_semigroup(api, case):
    ev = api.ds.build_evaluator(case.args["pencil"])
    return ev, api.ds.verify_properties(ev)


def _check_semigroup(case, out):
    ev, report = out
    e = case.expect
    require(ev.p == e["p"] and ev.rank == e["rank"],
            f"evaluator (p, rank) = {(ev.p, ev.rank)}, construction gives "
            f"{(e['p'], e['rank'])}")
    require(report.all_passed, f"identity suite failed: {report.residuals}")
    coords = ev.V.conj().T @ e["basis"]
    S = ev.S_coord(np.asarray(e["grid"]))
    got = np.array([ev.V @ S[i] @ coords for i in range(len(e["grid"]))])
    require_close(got, np.array(case.ref), EXACT_TOL, "S_r(t) on the range space")


def _make_cp(api, rng, prefix):
    n, rank_e = HAMILTONIAN
    pen = api.ds.make_hamiltonian(n, rank_e, seed=_seed_of(rng))
    lam, X = refs.finite_modes(pen.E, pen.A)
    require(len(lam) == rank_e, f"{len(lam)} finite modes, rank E = {rank_e}")
    ref = [X * np.exp(lam * t) for t in CP_TIMES]
    return Case({"pencil": pen}, ref=ref, expect={"modes": X})


def _run_cp(api, case):
    ev = api.ds.build_evaluator(case.args["pencil"])
    return [api.ds.cp_semigroup(ev, t) for t in CP_TIMES]


def _check_cp(case, mats):
    got = np.array([C @ case.expect["modes"] for C in mats])
    require_close(got, np.array(case.ref), EXACT_TOL, "C0-semigroup on the modes")


# -- cli-roundtrip ---------------------------------------------------------

def _complex_list(vec) -> str:
    return ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in vec)


def _write_pencil(api, prefix, pen, case_files):
    path = prefix + "-pencil.json"
    api.fileio.write_pencil(path, pen)
    case_files.append(path)
    return path


def _make_cli_analyze(k: int):
    def make(api, rng, prefix):
        pen, _ = _weierstrass(api, rng, 8, 8, k)
        case = Case({}, expect={"k": k, "ran": 8, "ker": 8})
        case.args["argv"] = ["analyze", _write_pencil(api, prefix, pen, case.files)]
        return case
    return make


def _make_cli_verify(k: int):
    def make(api, rng, prefix):
        pen, _ = _weierstrass(api, rng, 8, 8, k)
        case = Case({})
        path = _write_pencil(api, prefix, pen, case.files)
        case.args["argv"] = ["verify", path, "--suite", "laplace"]
        return case
    return make


def _make_cli_solve(k: int):
    def make(api, rng, prefix):
        pen, orc = _weierstrass(api, rng, 8, 8, k)
        forcing = _forcing(rng, 16)
        ts = np.linspace(0.0, CLI_T1, CLI_STEPS)
        ref = refs.weierstrass_solution(orc, _cvec(rng, 8), forcing, ts)
        case = Case({}, ref=ref, expect={"times": ts})
        sig_path = prefix + "-signal.json"
        api.fileio.write_signal(sig_path, api.ds.Signal.from_terms(forcing))
        csv_path = prefix + "-traj.csv"
        case.files += [sig_path, csv_path]
        case.expect["csv"] = csv_path
        case.args["argv"] = [
            "solve", _write_pencil(api, prefix, pen, case.files),
            "--x0=" + _complex_list(ref[0]), "--signal", sig_path,
            "--t1", repr(CLI_T1), "--steps", str(CLI_STEPS), "--csv-out", csv_path]
        return case
    return make


def _mixed_transport(api, rng):
    """make_transport with its rows mixed by a seeded unitary: the same
    solutions, but a pencil of its own for every operation."""
    n, m = TRANSPORT
    base = api.ds.make_transport(n, m)
    nz = base.E.shape[0]
    Q, _ = np.linalg.qr(rng.normal(size=(nz, nz)) + 1j * rng.normal(size=(nz, nz)))
    pen = api.ds.Pencil(Q @ base.E, Q @ base.A, omega_hint=base.omega_hint,
                        name=base.name)
    return base, pen


def _make_cli_transport_analyze(api, rng, prefix):
    _, pen = _mixed_transport(api, rng)
    n, m = TRANSPORT
    case = Case({}, expect={"k": 1, "ran": n, "ker": m})
    case.args["argv"] = ["analyze", _write_pencil(api, prefix, pen, case.files)]
    return case


def _make_cli_transport_solve(api, rng, prefix):
    base, pen = _mixed_transport(api, rng)
    n, m = TRANSPORT
    x1 = rng.normal(size=n)
    x1[0] = 0.0  # boundary row: x1(0) = 0
    x0 = np.concatenate([x1, np.full(m, x1[-1])])  # x2 = x1(1) on (1, 2)
    ts = np.linspace(0.0, 1.0, TRANSPORT_STEPS)
    ref = refs.transport_solution(base.E, base.A, n, x0, ts)
    csv_path = prefix + "-traj.csv"
    case = Case({}, ref=ref, expect={"times": ts, "csv": csv_path, "tol": CONTOUR_TOL},
                files=[csv_path])
    case.args["argv"] = [
        "solve", _write_pencil(api, prefix, pen, case.files),
        "--x0=" + _complex_list(x0), "--method", "contour", "--t1", "1",
        "--steps", str(TRANSPORT_STEPS), "--csv-out", csv_path]
    return case


def _run_cli(api, case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(case.args["argv"])
    return code, buf.getvalue()


def _cli_report(out) -> dict:
    code, text = out
    require(code == 0, f"exit code {code}")
    return json.loads(text)


def _check_cli_analyze(case, out):
    e = case.expect
    refs.check_analyze(_cli_report(out), e["k"], e["ran"], e["ker"])


def _check_cli_verify(case, out):
    suite = _cli_report(out)["properties"]["laplace"]
    require(suite["all_passed"] is True and suite["max_error"] <= suite["tol"],
            f"laplace suite: {suite}")


def _check_cli_solve(case, out):
    _cli_report(out)
    times, values = refs.read_csv_trajectory(case.expect["csv"])
    require_close(times, case.expect["times"], 1e-15, "CSV time column")
    require_close(values, case.ref, case.expect.get("tol", EXACT_TOL),
                  "CSV trajectory")


# -- the workloads ---------------------------------------------------------

def _full_solve():
    slots = []
    for k in (1, 2, 3, 4):
        slots.append(Slot("solve_full", "large", _make_full(128, k), _run_full, _check_full))
        small = Slot("solve_full", "small", _make_full(16, k), _run_full, _check_full)
        slots += [small, small]
    return tuple(slots)


def _contour_solve():
    slots = []
    for k in (1, 2):
        slots.append(Slot("contour", "large", _make_contour(64, k), _run_contour,
                          _check_contour))
        small = Slot("contour", "small", _make_contour(16, k), _run_contour,
                     _check_contour)
        slots += [small, small]
    return tuple(slots)


def _semigroup_verify():
    small = Slot("verify", "small", _make_semigroup(16, 8), _run_semigroup,
                 _check_semigroup)
    return (Slot("verify", "large", _make_semigroup(64, 16), _run_semigroup,
                 _check_semigroup),
            small, small, small, small,
            Slot("cp_semigroup", "small", _make_cp, _run_cp, _check_cp))


def _cli_roundtrip():
    slots = []
    for k in (1, 2, 3):
        slots += [
            Slot("analyze", "small", _make_cli_analyze(k), _run_cli, _check_cli_analyze),
            Slot("solve", "small", _make_cli_solve(k), _run_cli, _check_cli_solve),
            Slot("verify", "small", _make_cli_verify(k), _run_cli, _check_cli_verify)]
    slots += [
        Slot("analyze", "large", _make_cli_transport_analyze, _run_cli,
             _check_cli_analyze),
        Slot("solve", "large", _make_cli_transport_solve, _run_cli, _check_cli_solve)]
    return tuple(slots)


WORKLOADS = {
    "full-solve": _full_solve(),
    "contour-solve": _contour_solve(),
    "semigroup-verify": _semigroup_verify(),
    "cli-roundtrip": _cli_roundtrip(),
}
