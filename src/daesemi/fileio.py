"""On-disk formats: pencil JSON, signal JSON, trajectory CSV/JSON, run reports.

Complex numbers are stored as explicit [re, im] pairs, matrices row-major
with dimensions first, and all JSON is emitted with sorted keys and a fixed
indent so that writing a freshly read file is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadShape
from .pencil import Pencil
from .signals import Signal


def _pairs(M: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(M).ravel()]


def _unpairs(flat, rows: int, cols: int) -> np.ndarray:
    vals = np.array([complex(re, im) for re, im in flat], dtype=complex)
    if vals.size != rows * cols:
        raise BadShape(f"expected {rows * cols} entries, got {vals.size}")
    return vals.reshape(rows, cols)


def pencil_to_dict(p: Pencil) -> dict:
    meta = {"name": p.name}
    if p.omega_hint is not None:
        meta["omega_hint"] = float(p.omega_hint)
    return {"n_x": p.n_x, "n_z": p.n_z,
            "E": _pairs(p.E), "A": _pairs(p.A), "metadata": meta}


def pencil_from_dict(d: dict) -> Pencil:
    n_x, n_z = int(d["n_x"]), int(d["n_z"])
    E = _unpairs(d["E"], n_z, n_x)
    A = _unpairs(d["A"], n_z, n_x)
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(A))):
        raise BadShape("non-finite matrix entries")
    meta = d.get("metadata", {})
    return Pencil(E, A, omega_hint=meta.get("omega_hint"),
                  name=meta.get("name", ""))


def _dump(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


def write_pencil(path, p: Pencil) -> None:
    with open(path, "w") as fh:
        fh.write(_dump(pencil_to_dict(p)))


def read_pencil(path) -> Pencil:
    with open(path) as fh:
        return pencil_from_dict(json.load(fh))


def write_signal(path, sig: Signal) -> None:
    with open(path, "w") as fh:
        fh.write(_dump(sig.to_json_dict()))


def read_signal(path) -> Signal:
    with open(path) as fh:
        sig = Signal.from_json_dict(json.load(fh))
    if not all(np.all(np.isfinite(v)) for v in (sig.coeffs, sig.powers, sig.rates)):
        raise BadShape("non-finite signal coefficient, power or rate")
    return sig


def trajectory_csv(times, values) -> str:
    """Header ``t,x_0_re,x_0_im,...``; 17 significant digits."""
    values = np.atleast_2d(np.asarray(values, dtype=complex))
    n = values.shape[1]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["t"]
    for j in range(n):
        header += [f"x_{j}_re", f"x_{j}_im"]
    w.writerow(header)
    for t, row in zip(np.asarray(times, dtype=float), values):
        out = [f"{t:.17g}"]
        for v in row:
            out += [f"{v.real:.17g}", f"{v.imag:.17g}"]
        w.writerow(out)
    return buf.getvalue()


def parse_trajectory_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    n = (len(header) - 1) // 2
    times = np.array([float(r[0]) for r in body])
    vals = np.array([[complex(float(r[1 + 2 * j]), float(r[2 + 2 * j]))
                      for j in range(n)] for r in body])
    return times, vals


@dataclass
class RunReport:
    """Machine-readable result bundle for one CLI invocation."""

    command: str
    pencil_name: str = ""
    seed: int | None = None
    index: dict | None = None
    decomposition: dict | None = None
    disjointness: dict | None = None
    properties: dict | None = None
    solver: dict | None = None
    timings: dict | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    def dumps(self) -> str:
        return _dump(self.to_dict())
