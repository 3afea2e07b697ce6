"""Tests of the benchmark's own references, checks and span accounting.

    python -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import daesemi  # noqa: E402
import daesemi.cli  # noqa: E402
import daesemi.fileio  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

API = SimpleNamespace(ds=daesemi, cli=daesemi.cli, fileio=daesemi.fileio)


def _rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weierstrass_reference_matches_oracle(k):
    rng = _rng(k)
    pen, orc = daesemi.make_weierstrass(4, 4, k, seed=k)
    forcing = workloads._forcing(rng, 8)
    u1_0 = workloads._cvec(rng, 4)
    ts = np.linspace(0.0, 3.0, 31)
    ref = refs.weierstrass_solution(orc, u1_0, forcing, ts)
    oracle = orc.solve(ref[0], daesemi.Signal.from_terms(forcing))(ts)
    assert refs.rel_error(ref, oracle) < 1e-12
    free = refs.weierstrass_solution(orc, u1_0, [], ts)
    assert refs.rel_error(free, orc.solve(free[0])(ts)) < 1e-12


def test_integrated_propagator_matches_evaluator():
    pen, orc = daesemi.make_weierstrass(5, 3, 2, seed=4)
    ev = daesemi.build_evaluator(pen)
    basis = np.linalg.inv(orc.S)[:, :5]
    for t in (0.2, 1.3):
        got = ev.V @ ev.S_coord(t) @ ev.V.conj().T @ basis
        ref = basis @ refs.integrated_propagator(orc.J, ev.p, t)
        assert refs.rel_error(got, ref) < 1e-10


def test_transport_reference_matches_contour_solve(tmp_path):
    case = workloads._make_cli_transport_solve(API, _rng(2), str(tmp_path / "c"))
    base = daesemi.make_transport(*workloads.TRANSPORT)
    x0 = case.ref[0]
    ts = case.expect["times"]
    traj = daesemi.solve_homogeneous(base, x0, ts, method="contour", strict=False)
    assert refs.rel_error(traj.values, case.ref) < 1e-8


def _full_case():
    make = workloads._make_full(16, 2)
    case = make(API, _rng(5), "unused")
    return case, workloads._run_full(API, case)


def test_full_solve_check_accepts_and_rejects_perturbation():
    case, traj = _full_case()
    workloads._check_full(case, traj)
    traj.values = traj.values * (1 + 1e-6)
    with pytest.raises(refs.CheckFailed):
        workloads._check_full(case, traj)


def test_contour_check_rejects_perturbation():
    case = workloads._make_contour(16, 1)(API, _rng(6), "unused")
    traj = workloads._run_contour(API, case)
    workloads._check_contour(case, traj)
    traj.values = traj.values * (1 + 1e-4)
    with pytest.raises(refs.CheckFailed):
        workloads._check_contour(case, traj)


def test_semigroup_check_rejects_wrong_index():
    case = workloads._make_semigroup(8, 4)(API, _rng(7), "unused")
    ev, report = workloads._run_semigroup(API, case)
    workloads._check_semigroup(case, (ev, report))
    ev.p += 1
    with pytest.raises(refs.CheckFailed):
        workloads._check_semigroup(case, (ev, report))


@pytest.mark.parametrize("field", ["dim_X_ran", "dim_X_ker", "stagnation_k"])
def test_analyze_check_rejects_wrong_dimension(tmp_path, field):
    case = workloads._make_cli_analyze(2)(API, _rng(8), str(tmp_path / "c"))
    code, text = workloads._run_cli(API, case)
    workloads._check_cli_analyze(case, (code, text))
    report = json.loads(text)
    report["decomposition"][field] += 1
    with pytest.raises(refs.CheckFailed):
        workloads._check_cli_analyze(case, (code, json.dumps(report)))


def test_cli_solve_check_reads_csv(tmp_path):
    case = workloads._make_cli_solve(1)(API, _rng(9), str(tmp_path / "c"))
    out = workloads._run_cli(API, case)
    workloads._check_cli_solve(case, out)
    times, values = refs.read_csv_trajectory(case.expect["csv"])
    lines = ["t," + ",".join(f"x_{j}_re,x_{j}_im" for j in range(values.shape[1]))]
    for t, row in zip(times, values * (1 + 1e-6)):
        lines.append(",".join([f"{t:.17g}"] + [f"{v.real:.17g},{v.imag:.17g}" for v in row]))
    Path(case.expect["csv"]).write_text("\n".join(lines) + "\n")
    with pytest.raises(refs.CheckFailed):
        workloads._check_cli_solve(case, out)


def test_self_times_add_up_to_root_span():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        case = workloads._make_full(16, 3)(API, _rng(10), "unused")
        with tracer.operation():
            workloads._run_full(API, case)
    finally:
        tracing.uninstall(undo)
    root = tracer.spans[0]
    assert root[0] == tracing.ROOT_SPAN and root[3] == -1
    total_self = sum(s for _, s in tracer.self_times().values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)
    assert tracer.self_times()["solver.solve_full"][0] == 1
    assert not hasattr(daesemi.solver.resolvent, "__wrapped__")  # restored


def test_per_layer_metrics_cover_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracing.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.PER_LAYER.values())
