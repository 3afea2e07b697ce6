#!/usr/bin/env python3
"""daesemi benchmark: one named workload, in one process, through the public API.

    python3 perfbench/run.py --workload full-solve --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the operations are timed with tracing off and the last
line of standard output is a JSON object with the end-to-end metrics
(``setup_s``, ``small_op_s``, ``large_op_s``, ``peak_rss_mb``); with
``--trace 1`` the same operations run with every traced function wrapped and
the last line carries the per-layer metrics instead.  Every output is checked
against a reference computed apart from daesemi (see refs.py).

``--repeat N`` runs N such processes one after another on seeds
``seed .. seed+N-1`` and prints each metric's median and quartiles.

daesemi is imported from ``src/`` next to this directory and nowhere else;
without it the command exits with code 2.
"""

import os

# Fixed before numpy is imported: one BLAS thread (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DAESEMI_SEED", None)

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
SETUP, MEASURE = 1, 2  # seed-stream phases


def import_daesemi() -> SimpleNamespace:
    """A fresh import of daesemi from SRC (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "daesemi" or n.startswith("daesemi.")]:
        del sys.modules[name]
    ds = importlib.import_module("daesemi")
    if not Path(ds.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"daesemi imported from {ds.__file__}, not {SRC}")
    return SimpleNamespace(ds=ds, cli=importlib.import_module("daesemi.cli"),
                           fileio=importlib.import_module("daesemi.fileio"))


def case_rng(seed: int, phase: int, rnd: int, slot: int):
    return np.random.default_rng(np.random.SeedSequence([seed, phase, rnd, slot]))


class Run:
    """One workload run: set-up, timed rounds, checks."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.slots = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.warmup_ok = True
        self.times: dict[tuple[str, str], list[float]] = {}

    def _make(self, api, phase: int, rnd: int):
        return [slot.make(api, case_rng(self.seed, phase, rnd, i),
                          str(self.out_dir / f"p{phase}-r{rnd}-s{i}"))
                for i, slot in enumerate(self.slots)]

    def setup(self, rep: int):
        """Import daesemi, make one round of inputs, warm up each kind once."""
        t0 = time.perf_counter()
        api = import_daesemi()
        cases = self._make(api, SETUP, rep)
        seen = set()
        for slot, case in zip(self.slots, cases):
            if (slot.size, slot.kind) in seen:
                continue
            seen.add((slot.size, slot.kind))
            try:
                slot.check(case, slot.run(api, case))
            except Exception as exc:  # a broken warm-up makes the run incorrect
                self.warmup_ok = False
                _report(f"warm-up {slot.size} {slot.kind}", exc)
        elapsed = time.perf_counter() - t0
        for case in cases:
            case.cleanup()
        return api, elapsed

    def round(self, api, rnd: int, tracer) -> None:
        for slot, case in zip(self.slots, self._make(api, MEASURE, rnd)):
            gc.collect()
            self.attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = slot.run(api, case)
                    dt = time.perf_counter() - t0
                else:
                    with tracer.operation():
                        t0 = time.perf_counter()
                        out = slot.run(api, case)
                        dt = time.perf_counter() - t0
                slot.check(case, out)
            except Exception as exc:  # counted, reported, and the run goes on
                self.failed += 1
                _report(f"{slot.size} {slot.kind}", exc)
            else:
                self.times.setdefault((slot.size, slot.kind), []).append(dt)
            finally:
                case.cleanup()

    def op_seconds(self, size: str) -> float:
        """Mean over the kinds of one size class of each kind's median."""
        meds = [statistics.median(ts) for (sz, _), ts in self.times.items() if sz == size]
        return statistics.fmean(meds) if meds else 0.0


def _report(what: str, exc: Exception) -> None:
    print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_once(args) -> int:
    if not (SRC / "daesemi" / "__init__.py").is_file():
        print(f"error: no daesemi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = HERE / "out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, out_dir)
        setups = []
        for rep in range(SETUP_REPEATS):
            api, elapsed = run.setup(rep)
            setups.append(elapsed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        deadline = time.perf_counter() + args.seconds
        rnd = 0
        while True:
            run.round(api, rnd, tracer)
            rnd += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    small, large = run.op_seconds("small"), run.op_seconds("large")
    detail = {"rounds": rnd, "setup_runs_s": setups,
              "kinds": {f"{sz}.{kind}": {"n": len(ts), "median_s": statistics.median(ts)}
                        for (sz, kind), ts in sorted(run.times.items())}}
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "small_op_s": {"value": small, "unit": "s"},
            "large_op_s": {"value": large, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        metrics = tracer.per_layer_metrics()
        detail["traced_small_op_s"], detail["traced_large_op_s"] = small, large
        detail["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and run.warmup_ok,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def repeat(args) -> int:
    """Run N processes on consecutive seeds; print medians and quartiles."""
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("# detail "))
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for key in ("traced_small_op_s", "traced_large_op_s"):
            if key in detail:
                values.setdefault(key, []).append(detail[key])
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"rounds={detail['rounds']} "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {summary[name]['spread']:.2%}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed_share": sorted(set(shares)), "metrics": summary}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write every span here as JSON")
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N processes on consecutive seeds and summarize")
    args = ap.parse_args(argv)
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
