"""Command-line surface.

Subcommands: analyze, solve, verify, example.  Exit codes: 0 success,
2 validation failure (bad files, shapes, arguments), 3 numerical failure
(singular pencils, failed verification, solver breakdown).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import generators
from .errors import (BadShape, DaesemiError, DimensionMismatch, ShapeMismatch)
from .fileio import (RunReport, read_pencil, read_signal, trajectory_csv,
                     write_pencil)
from .pencil import (Pencil, chain_index, estimate_resolvent_index,
                     right_resolvent)
from .semigroup import build_evaluator, cp_semigroup, verify_properties
from .signals import Signal
from .solver import solve_full, solve_homogeneous
from .subspaces import check_disjointness, hilbert_decomposition

DEFAULT_SEED = 0


def _seed() -> int:
    return int(os.environ.get("DAESEMI_SEED", DEFAULT_SEED))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([complex(part.replace("i", "j"))
                     for part in text.split(",")], dtype=complex)


def _index_dict(rep) -> dict:
    return {"p_res": rep.p_res, "fitted_slope": rep.fitted_slope,
            "growth_constant": rep.growth_constant,
            "p_res_vertical": rep.p_res_vertical,
            "axis_consistent": rep.axis_consistent}


def _levels(chain) -> list[int]:
    """Level ranks: the chain's rank drops up to stagnation."""
    return [a.rank - b.rank for a, b in zip(chain, chain[1:-1])]


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    p = read_pencil(args.pencil)
    idx = estimate_resolvent_index(p)
    rep = hilbert_decomposition(p)
    flags = check_disjointness(rep, p)
    q, _ = chain_index(p)
    out = RunReport(
        command="analyze", pencil_name=p.name, seed=_seed(),
        index={**_index_dict(idx), "chain_index": q},
        decomposition={
            "mu": [rep.mu, 0.0],  # Pencil.shift, the pencil's own, is real
            "stagnation_k": rep.stagnation_k,
            "dim_X_ran": rep.X_ran.rank, "dim_Z_ran": rep.Z_ran.rank,
            "dim_X_ker": rep.X_ker.rank, "dim_Z_ker": rep.Z_ker.rank,
            "levels_X": _levels(rep.X_chain),
            "levels_Z": _levels(rep.Z_chain)},
        disjointness={
            "disjoint_ranE": flags.disjoint_ranE,
            "disjoint_kernel": flags.disjoint_kernel,
            "dim_Xran_cap_Xker": flags.dim_Xran_cap_Xker,
            "dim_Zran_cap_Zker": flags.dim_Zran_cap_Zker,
            "min_angle_kerE": flags.min_angle_kerE,
            "min_angle_Xker": flags.min_angle_Xker},
        timings={"total_s": time.perf_counter() - t0})
    print(out.dumps(), end="")
    return 0


def _cmd_solve(args) -> int:
    t_start = time.perf_counter()
    p = read_pencil(args.pencil)
    x0 = _parse_vector(args.x0)
    if x0.size != p.n_x:
        raise DimensionMismatch(f"x0 has {x0.size} entries, pencil {p.n_x}")
    if not (np.all(np.isfinite(x0)) and np.isfinite([args.t0, args.t1]).all()):
        raise BadShape("--x0, --t0 and --t1 must be finite")
    if args.steps < 1:
        raise BadShape("--steps must be at least 1")
    f = read_signal(args.signal) if args.signal else None
    if f is not None and f.shape != (p.n_z,):
        raise DimensionMismatch(f"signal shape {f.shape}, pencil Z-dim {p.n_z}")
    ts = np.linspace(args.t0, args.t1, args.steps)
    method = args.method
    if method == "auto":
        method = "decomp" if p.is_square else "contour"
    if method == "decomp":
        traj = solve_full(p, x0, Signal.zero(p.n_z) if f is None else f, ts)
    elif f is None:
        traj = solve_homogeneous(p, x0, ts, method="contour", strict=False)
    else:
        raise BadShape("the contour method only solves homogeneous "
                       "problems; use decomp/auto with a signal")
    csv_text = trajectory_csv(traj.times, traj.values)
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(csv_text)
    out = RunReport(
        command="solve", pencil_name=p.name, seed=_seed(),
        solver={"method": method,
                "classification": traj.classification,
                "classical_residual": _finite_or_str(traj.classical_res),
                "mild_residual": _finite_or_str(traj.mild_res),
                "consistency": _jsonable(traj.consistency),
                "contours": {kind: (traj.contours or ()).count(kind)
                             for kind in ("hyperbola", "line")},
                "csv": None if args.csv_out else csv_text},
        timings={"total_s": time.perf_counter() - t_start})
    print(out.dumps(), end="")
    return 0


def _finite_or_str(v: float):
    return float(v) if np.isfinite(v) else "inf"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _finite_or_str(float(obj))
    return obj


def _suite_lemma29(p: Pencil) -> dict:
    ev = build_evaluator(p)
    rep = verify_properties(ev)
    # kappa_1 = ||Q||_1 ||Q^-1||_1 of A_R's eigenbasis Q, read off the report's
    # one Schur triangle of A_R, refused above EIGVEC_COND_CAP; none at rank 0
    cond = ev.closed_form.cond if ev.rank else None
    return {"residuals": rep.residuals, "passed": rep.passed,
            "all_passed": rep.all_passed, "tol": rep.tol,
            "eigvec_cond": cond}


def _suite_laplace(p: Pencil) -> dict:
    ev = build_evaluator(p)
    rng = np.random.default_rng(_seed())
    worst = 0.0
    if ev.rank:
        for lam in (3.0, 5.0, 8.0, 12.0, 20.0):
            c = rng.normal(size=ev.rank) + 1j * rng.normal(size=ev.rank)
            x0 = ev.V @ (c / np.linalg.norm(c))
            lhs = lam ** ev.p * (ev.V @ ev.closed_form.matvec(
                ev.V.conj().T @ x0).laplace(lam))
            rhs = right_resolvent(p, lam) @ x0
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    ok = worst <= 1e-5
    return {"max_error": worst, "tol": 1e-5, "all_passed": ok}


def _suite_thm43(p: Pencil) -> dict:
    ev = build_evaluator(p)
    rng = np.random.default_rng(_seed())
    law = 0.0
    for t, s in ((0.3, 0.7), (1.0, 0.5), (2.0, 1.5)):
        law = max(law, float(np.linalg.norm(
            cp_semigroup(ev, t) @ cp_semigroup(ev, s)
            - cp_semigroup(ev, t + s), 2)))
    ident = float(np.linalg.norm(
        cp_semigroup(ev, 0.0) - ev.V @ ev.V.conj().T, 2))
    x = ev.V @ rng.normal(size=ev.rank) if ev.rank else np.zeros(p.n_x)
    hs = [2.0 ** (-j) for j in range(0, 7)]
    errs = [float(np.linalg.norm(cp_semigroup(ev, h) @ x - x)) for h in hs]
    mono = all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    ok = law <= 1e-8 and ident <= 1e-10 and mono
    return {"semigroup_law": law, "identity_at_zero": ident,
            "approach_errors": errs, "monotone_approach": mono,
            "all_passed": ok}


_SUITES = {"lemma29": _suite_lemma29, "laplace": _suite_laplace,
           "thm43": _suite_thm43}


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    p = read_pencil(args.pencil)
    result = _SUITES[args.suite](p)
    out = RunReport(command="verify", pencil_name=p.name, seed=_seed(),
                    properties={args.suite: _jsonable(result)},
                    timings={"total_s": time.perf_counter() - t0})
    print(out.dumps(), end="")
    return 0 if result["all_passed"] else 3


def _cmd_example(args) -> int:
    seed = args.seed if args.seed is not None else _seed()
    if args.kind == "transport":
        p = generators.make_transport(args.n, args.m)
    elif args.kind == "weierstrass":
        p, _ = generators.make_weierstrass(args.ns, args.nn, args.k,
                                           seed=seed)
    else:
        p = generators.make_hamiltonian(args.n, args.rank_e, seed=seed)
    write_pencil(args.output, p)
    print(json.dumps({"written": args.output, "name": p.name,
                      "n_x": p.n_x, "n_z": p.n_z}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="daesemi",
        description="Analyze and solve linear DAEs d/dt(Ex) = Ax + f "
                    "through the integrated semigroup of the pencil (E, A).")
    sub = ap.add_subparsers(dest="cmd", required=True)

    a = sub.add_parser("analyze", help="index, decomposition, disjointness")
    a.add_argument("pencil")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("solve", help="solve an initial value problem")
    s.add_argument("pencil")
    s.add_argument("--x0", required=True, help="comma-separated components")
    s.add_argument("--signal", default=None, help="inhomogeneity JSON file")
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--t1", type=float, default=1.0)
    s.add_argument("--steps", type=int, default=50)
    s.add_argument("--method", choices=("contour", "decomp", "auto"),
                   default="auto")
    s.add_argument("--csv-out", default=None,
                   help="write the trajectory CSV here instead of inline")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("pencil")
    v.add_argument("--suite", choices=tuple(_SUITES), required=True)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("example", help="write a generated example pencil")
    e.add_argument("kind", choices=("transport", "weierstrass", "hamiltonian"))
    e.add_argument("-o", "--output", required=True)
    e.add_argument("--n", type=int, default=16)
    e.add_argument("--m", type=int, default=16)
    e.add_argument("--ns", type=int, default=2)
    e.add_argument("--nn", type=int, default=2)
    e.add_argument("--k", type=int, default=2)
    e.add_argument("--rank-e", type=int, default=8)
    e.add_argument("--seed", type=int, default=None)
    e.set_defaults(func=_cmd_example)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError,
            BadShape, ShapeMismatch, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DaesemiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
