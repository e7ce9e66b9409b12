"""Registry of the 14 Table 1 datasets (synthetic stand-ins).

Each :class:`TableRow` records the paper's published values (length,
discretization parameters, distance-call counts, discord lengths and
overlap) next to a factory that builds the synthetic stand-in, at a
reduced scale so the whole table can be regenerated in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.datasets.base import Dataset
from repro.datasets.ecg import ecg_qtdb_0606_like, ecg_record_like
from repro.datasets.power import dutch_power_demand_like
from repro.datasets.respiration import respiration_like
from repro.datasets.telemetry import tek_like
from repro.datasets.trajectory import commute_trail
from repro.datasets.video import video_gun_like
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class PaperNumbers:
    """The row's published values, for side-by-side reporting."""

    length: int
    brute_force_calls: float
    hotsax_calls: int
    rra_calls: int
    reduction_percent: float
    hotsax_discord_length: int
    rra_discord_length: int
    overlap_percent: float


@dataclass(frozen=True)
class TableRow:
    """One row of Table 1: paper numbers + a stand-in factory."""

    key: str
    display_name: str
    window: int
    paa_size: int
    alphabet_size: int
    paper: PaperNumbers
    factory: Callable[[], Dataset]
    reduced_length: int


def _commute_dataset() -> Dataset:
    trail = commute_trail(
        num_trips=8, points_per_leg=110, detour_trip=5, gps_loss_trip=2
    )
    return trail.dataset


_ROWS: list[TableRow] = [
    TableRow(
        key="daily_commute",
        display_name="Daily commute (350,15,4)",
        window=350,
        paa_size=15,
        alphabet_size=4,
        paper=PaperNumbers(17175, 271_442_101, 879_067, 112_405, 87.2, 350, 366, 100.0),
        factory=_commute_dataset,
        reduced_length=3520,
    ),
    TableRow(
        key="dutch_power_demand",
        display_name="Dutch power demand (750,6,3)",
        window=750,
        paa_size=6,
        alphabet_size=3,
        paper=PaperNumbers(35040, 1.13e9, 6_196_356, 327_950, 95.7, 750, 773, 96.3),
        factory=lambda: dutch_power_demand_like(
            weeks=10, holiday_weeks=((4, 2), (6, 0), (8, 3))
        ),
        reduced_length=6720,
    ),
    TableRow(
        key="ecg_qtdb_0606",
        display_name="ECG 0606 (120,4,4)",
        window=120,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(2300, 4_241_541, 72_390, 16_717, 76.9, 120, 127, 79.2),
        factory=lambda: ecg_qtdb_0606_like(),
        reduced_length=2300,
    ),
    TableRow(
        key="ecg_308",
        display_name="ECG 308 (300,4,4)",
        window=300,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(5400, 23_044_801, 327_454, 14_655, 95.5, 300, 317, 97.7),
        factory=lambda: ecg_record_like("308", length=5400, seed=308),
        reduced_length=5400,
    ),
    TableRow(
        key="ecg_15",
        display_name="ECG 15 (300,4,4)",
        window=300,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(15000, 207_374_401, 1_434_665, 111_348, 92.2, 300, 306, 65.0),
        factory=lambda: ecg_record_like("15", length=6000, seed=15),
        reduced_length=6000,
    ),
    TableRow(
        key="ecg_108",
        display_name="ECG 108 (300,4,4)",
        window=300,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(21600, 441_021_001, 6_041_145, 150_184, 97.5, 300, 324, 89.7),
        factory=lambda: ecg_record_like("108", length=7200, seed=108),
        reduced_length=7200,
    ),
    TableRow(
        key="ecg_300",
        display_name="ECG 300 (300,4,4)",
        window=300,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(536976, 288e9, 101_427_254, 17_712_845, 82.6, 300, 312, 83.0),
        factory=lambda: ecg_record_like("300", length=9000, num_anomalies=3, seed=300),
        reduced_length=9000,
    ),
    TableRow(
        key="ecg_318",
        display_name="ECG 318 (300,4,4)",
        window=300,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(586086, 343e9, 45_513_790, 10_000_632, 78.0, 300, 312, 80.7),
        factory=lambda: ecg_record_like("318", length=9000, num_anomalies=2, seed=318),
        reduced_length=9000,
    ),
    TableRow(
        key="respiration_nprs43",
        display_name="Respiration, NPRS 43 (128,5,4)",
        window=128,
        paa_size=5,
        alphabet_size=4,
        paper=PaperNumbers(4000, 14_021_281, 89_570, 45_352, 49.3, 128, 135, 96.0),
        factory=lambda: respiration_like(length=4000, name="respiration_nprs43", seed=43),
        reduced_length=4000,
    ),
    TableRow(
        key="respiration_nprs44",
        display_name="Respiration, NPRS 44 (128,5,4)",
        window=128,
        paa_size=5,
        alphabet_size=4,
        paper=PaperNumbers(24125, 569_753_031, 1_146_145, 257_529, 77.5, 128, 141, 61.7),
        factory=lambda: respiration_like(
            length=6000, name="respiration_nprs44", seed=44,
            anomaly_start_fraction=0.7,
        ),
        reduced_length=6000,
    ),
    TableRow(
        key="video_gun",
        display_name="Video dataset (gun) (150,5,3)",
        window=150,
        paa_size=5,
        alphabet_size=3,
        paper=PaperNumbers(11251, 119_935_353, 758_456, 69_910, 90.8, 150, 163, 89.3),
        factory=lambda: video_gun_like(num_cycles=12, anomaly_cycles=(6,)),
        reduced_length=5400,
    ),
    TableRow(
        key="shuttle_TEK14",
        display_name="Shuttle telemetry, TEK14 (128,4,4)",
        window=128,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(5000, 22_510_281, 691_194, 48_226, 93.0, 128, 161, 72.7),
        factory=lambda: tek_like("TEK14"),
        reduced_length=4980,
    ),
    TableRow(
        key="shuttle_TEK16",
        display_name="Shuttle telemetry, TEK16 (128,4,4)",
        window=128,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(5000, 22_491_306, 61_682, 15_573, 74.8, 128, 138, 65.6),
        factory=lambda: tek_like("TEK16", seed=16),
        reduced_length=4980,
    ),
    TableRow(
        key="shuttle_TEK17",
        display_name="Shuttle telemetry, TEK17 (128,4,4)",
        window=128,
        paa_size=4,
        alphabet_size=4,
        paper=PaperNumbers(5000, 22_491_306, 164_225, 78_211, 52.4, 128, 148, 100.0),
        factory=lambda: tek_like("TEK17", seed=17),
        reduced_length=4980,
    ),
]


def table1_rows() -> list[TableRow]:
    """All 14 Table 1 rows, in paper order."""
    return list(_ROWS)


def get_row(key: str) -> TableRow:
    """Look up one Table 1 row by key."""
    for row in _ROWS:
        if row.key == key:
            return row
    raise DatasetError(
        f"unknown Table 1 dataset {key!r}; known: {[r.key for r in _ROWS]}"
    )
