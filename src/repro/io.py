"""Dataset and result I/O: UCR-style files, dataset bundles, result export.

Pieces a downstream user needs around the algorithms:

* :func:`load_series` / :func:`save_series` — plain one-column text
  series (:func:`read_series` is the reader the CLI shares);
* :func:`load_ucr` — the UCR time-series-archive format (one series per
  line, first column a label), the de-facto community interchange
  format;
* :func:`save_dataset` / :func:`load_dataset` — a
  :class:`~repro.datasets.base.Dataset` bundle (series + ground truth +
  recommended parameters) as ``.npz``;
* :func:`anomalies_to_json` / :func:`anomalies_from_json` — result
  export for downstream tooling.
"""

from __future__ import annotations

import ctypes
import json
import mmap
import os
import pathlib
import warnings
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from repro._cbuild import CCore
from repro.core.anomaly import Anomaly, Discord
from repro.exceptions import DatasetError, ReproError

if TYPE_CHECKING:
    from repro.datasets.base import Dataset

PathLike = Union[str, pathlib.Path]


# -- plain series -----------------------------------------------------------

def load_series(path: PathLike, *, column: int = 0) -> np.ndarray:
    """Load a 1-d series from a text file (CSV or whitespace-separated).

    Non-finite entries are dropped (use
    :func:`repro.timeseries.preprocess.fill_missing` when positions
    matter).
    """
    return read_series(path, column=column)


def read_series(
    path: PathLike, *, column: int = 0, keep_nonfinite: bool = False
) -> np.ndarray:
    """The shared text-series reader behind :func:`load_series` and the CLI.

    The file is whitespace-separated or CSV (see :func:`_read_table`).
    A one-column file (or a single row, or a single value) is the
    series; a table yields its *column*.  Non-finite entries are dropped
    unless *keep_nonfinite* is set, for callers that route the raw
    values through :func:`repro.timeseries.preprocess.quality_gate`.

    Raises
    ------
    ReproError
        If the file cannot be read or parsed (e.g. ragged rows), the
        column does not exist, or no finite value remains.
    """
    data = _read_table(path)
    if data.ndim == 0:
        data = data.reshape(1)
    if data.ndim == 2:
        if column >= data.shape[1]:
            raise ReproError(
                f"column {column} requested but file has {data.shape[1]} columns"
            )
        data = data[:, column]
    finite = np.isfinite(data)
    if not finite.any():
        raise ReproError(f"no numeric data found in {path}")
    if not keep_nonfinite and not finite.all():
        data = data[finite]
    return np.ascontiguousarray(data)


def _read_table(path: PathLike) -> np.ndarray:
    """Parse a numeric text table into a float array.

    The file is comma-delimited when its first data line (blank lines
    and ``#`` comments aside) holds a comma, whitespace-delimited
    otherwise.  A clean file is parsed by the reader's C core
    (:func:`_parse_table`); ``np.loadtxt`` reads every file the core
    declines or when it is unavailable, and anything *it* rejects
    (missing, non-numeric or ragged cells) goes through
    ``np.genfromtxt``, which turns unparsable cells into NaN and is the
    arbiter of what a malformed file means.  An empty or comment-only
    file parses to an empty array, which :func:`read_series` reports;
    ``np.loadtxt``'s own warning about it is silenced.
    """
    try:
        raw = _read_bytes(path)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    delimiter = _delimiter(raw)
    lib = _io_core.load()
    if lib is not None:
        table = _parse_table(lib, raw, delimiter)
        if table is not None:
            return table
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore",
                message="loadtxt: (input contained no data|Empty input file)",
                category=UserWarning,
            )
            return np.loadtxt(path, dtype=float, delimiter=delimiter)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        pass
    try:
        return np.genfromtxt(path, delimiter=delimiter, dtype=float)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"cannot parse {path}: {exc}") from exc


#: Compressed files ``np.loadtxt`` opens by suffix, and their openers.
_COMPRESSED = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}


#: Pre-fault the read buffer in one call (Linux; one fault per page elsewhere).
_POPULATE = getattr(mmap, "MAP_POPULATE", 0)


def _read_bytes(path: PathLike) -> bytes | mmap.mmap:
    """The file's bytes, decompressed when ``np.loadtxt`` would do so.

    A regular file is read into an anonymous ``mmap``, not a ``bytes``
    object: freeing a ``malloc`` block of this size would raise glibc's
    dynamic mmap threshold, and the heap would then keep megabytes more
    of freed memory for the rest of the process.
    """
    module = _COMPRESSED.get(pathlib.Path(path).suffix)
    if module is None:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size and hasattr(mmap, "MAP_PRIVATE"):  # not on Windows
                buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | _POPULATE)
                # A file that changed size while being read is read again.
                if handle.readinto(buffer) == size and not handle.read(1):
                    return buffer
                handle.seek(0)
            return handle.read()
    import importlib

    with importlib.import_module(module).open(path, "rb") as handle:
        return handle.read()


def _first_data_line(raw: bytes | mmap.mmap) -> bytes:
    """The first line of *raw* with data before its ``#`` comment, or b""."""
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start)
        if end < 0:
            end = len(raw)
        line = raw[start:end].split(b"#", 1)[0]
        if line.strip():
            return line
        start = end + 1
    return b""


def _count_lines(data: np.ndarray, chunk: int = 1 << 16) -> int:
    """Newlines in the bytes *data* plus one, counted a chunk at a time
    so that no file-sized temporary is built."""
    return 1 + sum(
        int(np.count_nonzero(data[i : i + chunk] == ord("\n")))
        for i in range(0, data.size, chunk)
    )


def _delimiter(raw: bytes | mmap.mmap) -> str | None:
    """``","`` when the first data line holds a comma, else None."""
    return "," if b"," in _first_data_line(raw) else None


# -- the reader's C core ----------------------------------------------------

def _bind_core(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.io_parse.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int,
                             ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    lib.io_parse.restype = ctypes.c_int64
    return lib


def _parse_table(
    lib: ctypes.CDLL, raw: bytes | mmap.mmap, delimiter: str | None
) -> np.ndarray | None:
    """*raw* as ``np.loadtxt(..., delimiter=delimiter)`` reads it, or None.

    The core (``_io_core.c``) declines every file it cannot vouch for:
    a byte other than digits, ``+-.eE``, space, tab, ``\\n``, ``\\r\\n``
    (and ``,`` under a comma delimiter), a malformed or over-long token,
    an empty cell, ragged rows, or no value at all.  A file it reads
    gives ``np.loadtxt``'s shape (``ndmin=0``: squeezed) and its bits.

    The output holds the first data line's cell count per line of
    *raw*, which bounds a file with the same count on every line; the
    core declines a file that would overflow it.
    """
    line = _first_data_line(raw)
    cells = len(line.split(b",") if delimiter == "," else line.split())
    data = np.frombuffer(raw, dtype=np.uint8)
    out = np.empty(cells * _count_lines(data))
    shape = np.zeros(2, dtype=np.int64)
    n = lib.io_parse(data.ctypes.data, data.size, delimiter == ",",
                     out.ctypes.data, out.size, shape.ctypes.data)
    if n <= 0:
        return None
    return np.squeeze(out[:n].reshape(shape))


#: Whitespace- and comma-delimited tables whose tokens take both
#: conversion routes (Clinger's exact product; the strtod_l copy for 20
#: digits, %.18e, a subnormal and overflow to inf), with signs, blank
#: lines, CRLF and two columns.
_PROBE_TEXTS = (
    b"1.5\t-2.25e-3\r\n\n+.5  0.1\n \t\n"
    b"3.1415926535897932385 -0\r\n"
    b"1.000000000000000056e-01 4.9e-324\n"
    b"-1e400 123456789012345678e-30",
    b"\n1.5, -2.25e-3\r\n+.5 ,0.1\n\n3.1415926535897932385\t,-0\n"
    b"1.000000000000000056e-01,4.9e-324\r\n-1e400,123456789012345678e-30\n",
)


def _probe_core(lib: ctypes.CDLL) -> bool:
    """True when the core reads :data:`_PROBE_TEXTS` as ``np.loadtxt`` does."""
    import io

    for text in _PROBE_TEXTS:
        delimiter = _delimiter(text)
        want = np.loadtxt(io.StringIO(text.decode()), delimiter=delimiter)
        got = _parse_table(lib, text, delimiter)
        if got is None or got.shape != want.shape or got.tobytes() != want.tobytes():
            return False
    return True


_io_core = CCore(pathlib.Path(__file__).with_name("_io_core.c"), _bind_core, _probe_core)


def save_series(path: PathLike, series: np.ndarray) -> None:
    """Write a 1-d series as one value per line."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ReproError(f"series must be 1-d, got shape {series.shape}")
    np.savetxt(path, series, fmt="%.10g")


# -- UCR archive format -----------------------------------------------------

def load_ucr(path: PathLike) -> list[tuple[int, np.ndarray]]:
    """Read a UCR-archive-style file: ``label v1 v2 ...`` per line.

    Accepts comma- or whitespace-separated rows.  Returns ``(label,
    values)`` pairs; the label is coerced to int (UCR class labels).
    """
    rows: list[tuple[int, np.ndarray]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) < 2:
                    raise ReproError(
                        f"{path}:{line_no}: need a label plus at least one value"
                    )
                try:
                    label = int(float(parts[0]))
                    values = np.array([float(p) for p in parts[1:]])
                except ValueError as exc:
                    raise ReproError(f"{path}:{line_no}: {exc}") from exc
                rows.append((label, values))
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ReproError(f"{path}: no data rows")
    return rows


def ucr_to_series(
    rows: Sequence[tuple[int, np.ndarray]],
    *,
    anomalous_label: int | None = None,
) -> Dataset:
    """Concatenate UCR instances into one long series.

    When *anomalous_label* is given, the positions of instances carrying
    that label become the ground-truth anomaly intervals — a common way
    to build anomaly benchmarks from classification archives.
    """
    from repro.datasets.base import Dataset

    if not rows:
        raise DatasetError("no rows to concatenate")
    pieces = []
    anomalies: list[tuple[int, int]] = []
    position = 0
    for label, values in rows:
        if anomalous_label is not None and label == anomalous_label:
            anomalies.append((position, position + values.size))
        pieces.append(np.asarray(values, dtype=float))
        position += values.size
    return Dataset(
        name="ucr_concatenated",
        series=np.concatenate(pieces),
        anomalies=anomalies,
        description=f"{len(rows)} UCR instances concatenated",
    )


# -- dataset bundles --------------------------------------------------------

def save_dataset(path: PathLike, dataset: Dataset) -> None:
    """Persist a Dataset (series + truth + parameters) as ``.npz``."""
    np.savez_compressed(
        path,
        series=dataset.series,
        anomalies=np.array(dataset.anomalies, dtype=np.int64).reshape(-1, 2),
        meta=json.dumps(
            {
                "name": dataset.name,
                "window": dataset.window,
                "paa_size": dataset.paa_size,
                "alphabet_size": dataset.alphabet_size,
                "description": dataset.description,
            }
        ),
    )


def load_dataset(path: PathLike) -> Dataset:
    """Load a Dataset bundle written by :func:`save_dataset`."""
    from repro.datasets.base import Dataset

    try:
        bundle = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    try:
        meta = json.loads(str(bundle["meta"]))
        anomalies = [
            (int(start), int(end)) for start, end in bundle["anomalies"]
        ]
        return Dataset(
            name=meta["name"],
            series=bundle["series"],
            anomalies=anomalies,
            window=int(meta["window"]),
            paa_size=int(meta["paa_size"]),
            alphabet_size=int(meta["alphabet_size"]),
            description=meta.get("description", ""),
        )
    except KeyError as exc:
        raise ReproError(f"{path}: not a dataset bundle ({exc})") from exc


# -- result export ----------------------------------------------------------

def anomalies_to_json(anomalies: Sequence[Anomaly]) -> str:
    """Serialize detection results for downstream tooling."""
    records = []
    for anomaly in anomalies:
        record = {
            "start": anomaly.start,
            "end": anomaly.end,
            "score": anomaly.score,
            "rank": anomaly.rank,
            "source": anomaly.source,
        }
        if isinstance(anomaly, Discord):
            record["nn_distance"] = anomaly.nn_distance
            record["rule_id"] = anomaly.rule_id
        records.append(record)
    return json.dumps(records, indent=2)


def anomalies_from_json(payload: str) -> list[Anomaly]:
    """Inverse of :func:`anomalies_to_json`."""
    try:
        records = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid anomaly JSON: {exc}") from exc
    out: list[Anomaly] = []
    for record in records:
        if "nn_distance" in record:
            out.append(
                Discord(
                    start=record["start"],
                    end=record["end"],
                    score=record["score"],
                    rank=record.get("rank", 0),
                    source=record.get("source", "rra"),
                    nn_distance=record["nn_distance"],
                    rule_id=record.get("rule_id"),
                )
            )
        else:
            out.append(
                Anomaly(
                    start=record["start"],
                    end=record["end"],
                    score=record["score"],
                    rank=record.get("rank", 0),
                    source=record.get("source", "density"),
                )
            )
    return out
