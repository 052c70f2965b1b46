"""File formats: runs, estimates, transmittance traces, reports.

A run directory (format v2) holds the (m, n) arrays M and B as float64
.npy files, the true transmittances as true_T.csv and a run.json
sidecar carrying the format, distribution, protocol and seed.  The
arrays are written and read one row block at a time (channel.block_rows),
so a run of any m passes through bounded memory.  Tables
are CSV (RFC 4180, comma, header row), reports JSON.  Floats are
written with repr, and arrays in the bytes np.save writes, so a rerun of
the same seed produces byte-identical files.  estimates.csv is written,
never read back: what derives from a run is computed from its states.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .channel import ProtocolParams, Run, RunStream, block_rows
from .distributions import TransmittanceDistribution, from_descriptor
from .errors import ValidationError
from .estimation import Estimates

__all__ = [
    "write_run", "open_run", "read_run", "write_estimates",
    "read_trace", "write_json", "read_json", "json_typed", "write_table",
    "protocol_descriptor", "protocol_from_descriptor",
    "M_NPY", "B_NPY", "RUN_JSON", "TRUE_T_CSV", "ESTIMATES_CSV",
]

M_NPY = "M.npy"
B_NPY = "B.npy"
RUN_JSON = "run.json"
TRUE_T_CSV = "true_T.csv"
ESTIMATES_CSV = "estimates.csv"
RUN_FORMAT_V2 = "fading-cvqkd-run-v2"

_ESTIMATE_HEADER = ["package", *Estimates.columns, "k"]


def jsonable(obj):
    """Recursively convert dataclasses/arrays/non-finite floats to
    plain JSON-safe values (inf and nan become strings)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_table(path, header: Sequence[str], rows) -> None:
    """Write a CSV table (and its directory); floats go through repr."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                        for v in row])


def write_json(obj, path) -> None:
    """Write obj as JSON, making its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _open(path, mode: str = "r"):
    """Open an input file; a missing one, a directory, or a path through
    a file is a ValidationError naming it."""
    try:
        return open(path, mode, newline=None if "b" in mode else "")
    except FileNotFoundError:
        raise ValidationError(f"{path}: missing") from None
    except (IsADirectoryError, NotADirectoryError) as exc:
        raise ValidationError(f"{path}: {exc.strerror.lower()}") from None


def _csv_rows(path, header: list[str], label):
    """(row number, row) of each row of a CSV input whose header must
    be header, every row checked for its field count."""
    with _open(path) as fh:
        rd = csv.reader(fh)
        got = next(rd, None)
        if got != header:
            raise ValidationError(f"{label}: bad header {got}")
        for row_no, row in enumerate(rd, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{label} row {row_no}: expected "
                                      f"{len(header)} fields, got {len(row)}")
            yield row_no, row


def read_json(path) -> dict:
    try:
        with _open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}")


def json_typed(val, kind: type, where: str):
    """val, if it is of the JSON type kind (int, str or dict; a bool is
    not an integer); else a ValidationError saying where it was found."""
    if isinstance(val, bool) or not isinstance(val, kind):
        name = {int: "integer", str: "string", dict: "object"}[kind]
        raise ValidationError(f"{where} must be a JSON {name}, got {val!r}")
    return val


def protocol_descriptor(p: ProtocolParams) -> dict:
    return {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}


def protocol_from_descriptor(d: dict) -> ProtocolParams:
    known = {f.name for f in dataclasses.fields(ProtocolParams)}
    extra = set(d) - known
    if extra:
        raise ValidationError(f"unknown protocol keys: {sorted(extra)}")
    return ProtocolParams(**d)


def write_run(run: Run | RunStream, out_dir) -> None:
    """Write a run in format v2, one row block at a time: M.npy and
    B.npy (the bytes np.save writes), true_T.csv, then the JSON sidecar
    carrying the distribution, protocol and seed.  The old run.json and
    true_T.csv go first and run.json comes last, so a write cut short
    leaves no directory that open_run takes for a run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (RUN_JSON, TRUE_T_CSV):
        (out / name).unlink(missing_ok=True)
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
              "fortran_order": False, "shape": (run.m, run.n)}
    with open(out / M_NPY, "wb") as fm, open(out / B_NPY, "wb") as fb:
        for fh in (fm, fb):
            np.lib.format.write_array_header_1_0(fh, header)
        for M, B in run.blocks():
            fm.write(np.ascontiguousarray(M))
            fb.write(np.ascontiguousarray(B))
    write_table(out / TRUE_T_CSV, ["package", "T_true"], enumerate(run.true_T.tolist()))
    sidecar = {
        "format": RUN_FORMAT_V2,
        "dist": run.dist.descriptor(),
        "protocol": protocol_descriptor(run.protocol),
        "n": run.n,
        "m": run.m,
        "seed": run.seed,
    }
    write_json(sidecar, out / RUN_JSON)


def _field(row_no: int, name: str, raw: str, conv=float):
    """A field of a CSV row: a finite float, or an int when conv is int."""
    try:
        x = conv(raw)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ValidationError(f"row {row_no}: field {name} is not {kind}: {raw!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"row {row_no}: field {name} is not finite: {raw!r}")
    return x


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _npy_offset(path: Path, shape: tuple[int, int]) -> int:
    """Where the states begin in a .npy file, once its header shows a
    float64 C-order array of the given shape and its size is that of the
    header and the states; pickled object arrays are refused."""
    with _open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValueError(f"format version {version}")
            got, fortran_order, dtype = _NPY_HEADERS[version](fh)
        except (ValueError, EOFError) as exc:
            raise ValidationError(f"{path.name}: not a plain .npy array: {exc}")
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if dtype.hasobject:
        raise ValidationError(f"{path.name}: not a plain .npy array: it holds objects")
    if dtype != np.float64:
        raise ValidationError(f"{path.name}: dtype {dtype}, expected float64")
    if fortran_order:
        raise ValidationError(f"{path.name}: Fortran order, expected C order")
    if got != shape:
        raise ValidationError(f"{path.name}: shape {got}, but {RUN_JSON} "
                              f"gives (m, n) = {shape}")
    expected = offset + 8 * shape[0] * shape[1]
    if size != expected:
        raise ValidationError(f"{path.name}: {size} bytes, expected {expected} "
                              f"(a {offset}-byte header and {shape[0]} x {shape[1]} "
                              "float64 states)")
    return offset


def _read_rows(fh, label: str, start: int, rows: int, n: int) -> np.ndarray:
    """The next rows x n states of an open .npy file, those of packages
    start, start + 1, ...; a non-finite one is refused by its place."""
    a = np.empty((rows, n))
    if fh.readinto(a) != a.nbytes:
        raise ValidationError(f"{label}: ends inside the states of package {start}")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise ValidationError(f"{label}: non-finite value {a[i, j]} at package "
                              f"{start + i}, state {j}")
    return a


def _read_blocks(src: Path, offsets: tuple[int, int], m: int, n: int):
    """The (M, B) row blocks of a run directory, each checked finite."""
    with _open(src / M_NPY, "rb") as fm, _open(src / B_NPY, "rb") as fb:
        fm.seek(offsets[0])
        fb.seek(offsets[1])
        step = block_rows(n)
        for start in range(0, m, step):
            rows = min(step, m - start)
            yield (_read_rows(fm, M_NPY, start, rows, n),
                   _read_rows(fb, B_NPY, start, rows, n))


def open_run(in_dir) -> RunStream:
    """The run in a directory written by write_run (format v2), as a
    RunStream.  The sidecar (its keys, and n, m and seed integers),
    true_T.csv and the header and size of each array are checked here;
    blocks() checks each block's states for finiteness as it reads them.
    Row i of true_T.csv must carry package i, and there must be m rows.
    A run of an older format is refused with the command that regenerates
    it: the simulation is determined by its run.json, so a rerun is
    lossless."""
    src = Path(in_dir)
    sidecar = json_typed(read_json(src / RUN_JSON), dict, RUN_JSON)
    for key in ("format", "dist", "protocol", "n", "m", "seed"):
        if key not in sidecar:
            raise ValidationError(f"{RUN_JSON}: missing key {key!r}")
    for key in ("n", "m", "seed"):
        json_typed(sidecar[key], int, f"{RUN_JSON}: {key!r}")
    if sidecar["format"] != RUN_FORMAT_V2:
        raise ValidationError(f"{RUN_JSON}: unknown run format {sidecar['format']!r}; "
                              f"expected {RUN_FORMAT_V2!r}.  Regenerate the run with "
                              f"'fading-cvqkd simulate --config {src / RUN_JSON} --out NEW'")
    dist = from_descriptor(sidecar["dist"])
    protocol = protocol_from_descriptor(sidecar["protocol"])
    n, m = sidecar["n"], sidecar["m"]
    if m < 1 or n < 2:
        raise ValidationError(f"{RUN_JSON}: need m >= 1 packages of n >= 2 states, "
                              f"got m = {m}, n = {n}")

    true_T = []
    for row_no, row in _csv_rows(src / TRUE_T_CSV, ["package", "T_true"], TRUE_T_CSV):
        i = _field(row_no, "package", row[0], int)
        if i != len(true_T):
            raise ValidationError(f"{TRUE_T_CSV} row {row_no}: package index {i}, "
                                  f"expected {len(true_T)}")
        t = _field(row_no, "T_true", row[1])
        if not (0.0 <= t <= 1.0):
            raise ValidationError(f"{TRUE_T_CSV} row {row_no}: T_true outside [0, 1]")
        true_T.append(t)
    if len(true_T) != m:
        raise ValidationError(f"{TRUE_T_CSV}: {len(true_T)} rows, but {RUN_JSON} gives m = {m}")

    offsets = (_npy_offset(src / M_NPY, (m, n)), _npy_offset(src / B_NPY, (m, n)))
    return RunStream(true_T=np.array(true_T), dist=dist, protocol=protocol,
                     seed=sidecar["seed"], n=n, blocks=partial(_read_blocks, src, offsets, m, n))


def read_run(in_dir) -> Run:
    """The run of open_run, collected into whole (m, n) arrays."""
    return open_run(in_dir).collect()


def write_estimates(est: Estimates, path) -> None:
    """One row per package: its index, the float columns, then k."""
    columns = zip(*(getattr(est, name).tolist() for name in Estimates.columns))
    write_table(path, _ESTIMATE_HEADER, ((i, *row, est.k) for i, row in enumerate(columns)))


def read_trace(path) -> np.ndarray:
    """Read a measured transmittance trace.

    Accepts a bare single-column file with header T, or a wider table
    holding a T or T_true column (the true-T sidecar of a simulated
    run), in which case that column is extracted.
    """
    with _open(path) as fh:
        header = next(csv.reader(fh), None)
    name = next((n for n in ("T", "T_true") if n in (header or ())), None)
    if name is None:
        raise ValidationError(
            f"{path}: bad header {header}, expected a T or T_true column")
    col = header.index(name)
    vals = []
    for row_no, row in _csv_rows(path, header, path):
        t = _field(row_no, name, row[col])
        if not (0.0 <= t <= 1.0):
            raise ValidationError(f"{path} row {row_no}: T outside [0, 1]")
        vals.append(t)
    if not vals:
        raise ValidationError(f"{path}: empty trace")
    return np.array(vals)
