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

import json
import pathlib
import warnings
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

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
    if not keep_nonfinite:
        data = data[np.isfinite(data)]
    if data.size == 0 or not np.isfinite(data).any():
        raise ReproError(f"no numeric data found in {path}")
    return data


def _read_table(path: PathLike) -> np.ndarray:
    """Parse a numeric text table into a float array.

    ``np.loadtxt`` is the fast path for clean files; anything it
    rejects (missing, non-numeric or ragged cells) goes through
    ``np.genfromtxt``, which turns unparsable cells into NaN and is the
    arbiter of what a malformed file means.  An empty or comment-only
    file parses to an empty array, which :func:`read_series` reports;
    ``np.loadtxt``'s own warning about it is silenced.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore",
                message="loadtxt: (input contained no data|Empty input file)",
                category=UserWarning,
            )
            return np.loadtxt(path, dtype=float)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    except ValueError:
        pass
    try:
        return np.genfromtxt(path, delimiter=None, dtype=float)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"cannot parse {path}: {exc}") from exc


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
