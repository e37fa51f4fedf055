"""Sampled field grids and their CSV/JSON exchange formats.

A FieldGrid stores Q(x, t) on a rectangular grid, row-major with t outer.
By symmetry only three complex entries are independent (q1 = Q11, q0 = Q12
= Q21, qm1 = Q22); the CSV schema stores exactly those.  Floats are written
with 17 significant digits so serialization round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = ["x", "t", "re_q1", "im_q1", "re_q0", "im_q0", "re_qm1", "im_qm1"]
SCHEMA_VERSION = "1"
ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    nx: int
    tmin: float
    tmax: float
    nt: int

    def __post_init__(self):
        for name in ("nx", "nt"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.nx < 2 or self.nt < 2:
            raise ValueError("grid needs at least 2 samples per axis")
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.tmin, self.tmax))):
            raise ValueError("grid bounds must be finite")
        if not (self.xmax > self.xmin and self.tmax > self.tmin):
            raise ValueError("grid ranges must be increasing")

    def x_axis(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def t_axis(self) -> np.ndarray:
        return np.linspace(self.tmin, self.tmax, self.nt)


@dataclass
class FieldGrid:
    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray  # (nt, nx, 2, 2) complex
    mask: np.ndarray  # (nt, nx) bool, True where evaluation failed
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ts = np.asarray(self.ts, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        self.mask = np.asarray(self.mask, dtype=bool)
        if np.any(np.diff(self.xs) <= 0) or np.any(np.diff(self.ts) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if self.values.shape != (len(self.ts), len(self.xs), 2, 2):
            raise ValueError("values shape must be (nt, nx, 2, 2)")
        if self.mask.shape != (len(self.ts), len(self.xs)):
            raise ValueError("mask shape must be (nt, nx)")

    @property
    def masked_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def component(self, name: str) -> np.ndarray:
        return _stored(self.values)[..., _STORED.index(name)]


_STORED = ("q1", "q0", "qm1")  # Q11, Q12 = Q21, Q22: what the exchange formats keep


def _stored(values: np.ndarray) -> np.ndarray:
    """(..., 2, 2) symmetric stack -> contiguous (..., 3) in the order of _STORED."""
    return np.ascontiguousarray(values[..., [0, 0, 1], [0, 1, 1]])


def _symmetric(q: np.ndarray) -> np.ndarray:
    """(..., 3) stored entries -> the contiguous (..., 2, 2) symmetric stack."""
    return np.ascontiguousarray(q[..., [[0, 1], [1, 2]]])


_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER)) + "\r\n"  # CRLF, as csv.writer ends its rows


def write_csv(grid: FieldGrid, path) -> None:
    q = _stored(grid.values)
    q[grid.mask] = complex(np.nan, np.nan)
    x, t = np.meshgrid(grid.xs, grid.ts)
    rows = np.column_stack((x.ravel(), t.ravel(), q.reshape(-1, 3).view(float)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(_CSV_ROW % tuple(r) for r in rows.tolist())


def read_csv(path) -> FieldGrid:
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n").split(",") != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(len(CSV_HEADER)))
    xs, ix = np.unique(data[:, 0], return_inverse=True)
    ts, it = np.unique(data[:, 1], return_inverse=True)
    if len(data) != len(xs) * len(ts):
        raise ValueError("row count does not match grid size")
    q = np.ascontiguousarray(data[:, 2:]).view(complex)
    values = np.zeros((len(ts), len(xs), 2, 2), dtype=complex)
    mask = np.zeros((len(ts), len(xs)), dtype=bool)
    values[it, ix] = _symmetric(q)
    mask[it, ix] = np.isnan(data[:, 2:]).any(axis=1)
    return FieldGrid(xs=xs, ts=ts, values=values, mask=mask)


def write_json(grid: FieldGrid, path) -> None:
    pairs = _stored(grid.values).view(float)  # re, im of q1, q0, qm1 on the last axis
    doc = {
        "schema_version": SCHEMA_VERSION,
        "x": grid.xs.tolist(),
        "t": grid.ts.tolist(),
        "values": {name: pairs[..., 2 * i:2 * i + 2].reshape(-1, 2).tolist() for i, name in enumerate(_STORED)},
        "mask": grid.mask.ravel().astype(int).tolist(),
        "metadata": grid.metadata,
    }
    Path(path).write_text(json.dumps(doc))


def read_json(path) -> FieldGrid:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version")
    xs = np.array(doc["x"], dtype=float)
    ts = np.array(doc["t"], dtype=float)
    shape = (len(ts), len(xs))
    q = np.stack([np.array(doc["values"][name], dtype=float).view(complex).reshape(shape) for name in _STORED], -1)
    mask = np.array(doc["mask"], dtype=bool).reshape(shape)
    return FieldGrid(xs=xs, ts=ts, values=_symmetric(q), mask=mask, metadata=doc.get("metadata", {}))
