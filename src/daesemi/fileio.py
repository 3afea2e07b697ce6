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


def _finite(v, shape: tuple, what: str) -> np.ndarray:
    """The JSON value v as a float array, or BadShape unless it holds finite
    numbers in ``shape`` (-1 for any length); a ragged list is a ValueError."""
    a = np.asarray(v)
    if not (a.dtype.kind in "biuf" and a.ndim == len(shape)
            and all(s in (-1, n) for s, n in zip(shape, a.shape))
            and np.isfinite(a).all()):
        raise BadShape(f"{what} must be finite numbers of shape {shape}")
    return a.astype(float)


def _unpairs(flat, rows: int, cols: int) -> np.ndarray:
    pairs = _finite(flat, (-1, 2), "matrix entries as [re, im] pairs")
    # float64 pairs viewed as complex128 are re + i im, bit for bit
    vals = pairs.view(complex).ravel()
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
    if not (isinstance(d, dict) and isinstance(d.get("metadata", {}), dict)):
        raise BadShape("a pencil file holds one JSON object")
    n_x, n_z = (int(_finite(d[k], (), k)) for k in ("n_x", "n_z"))
    E = _unpairs(d["E"], n_z, n_x)
    A = _unpairs(d["A"], n_z, n_x)
    meta = d.get("metadata", {})
    omega = meta.get("omega_hint")
    if omega is not None:
        omega = float(_finite(omega, (), "omega_hint"))
    return Pencil(E, A, omega_hint=omega, name=meta.get("name", ""))


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
        d = json.load(fh)
    terms = d.get("terms") if isinstance(d, dict) else None
    if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
        raise BadShape("a signal file holds an object with a list of terms")
    for t in terms:
        for key, shape in (("coeff", (-1, 2)), ("rate", (2,)), ("power", ())):
            _finite(t.get(key), shape, f"a signal term's {key}")
    return Signal.from_json_dict(d)


def trajectory_csv(times, values) -> str:
    """Header ``t,x_0_re,x_0_im,...``; 17 significant digits."""
    values = np.atleast_2d(np.asarray(values, dtype=complex))
    n = values.shape[1]
    header = ",".join(["t"] + [f"x_{j}_{part}" for j in range(n)
                               for part in ("re", "im")])
    # complex128 rows viewed as float64 are re, im interleaved
    rows = np.column_stack([np.asarray(times, dtype=float),
                            np.ascontiguousarray(values).view(float)])
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",", header=header,
               comments="")
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
