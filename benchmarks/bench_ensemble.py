"""Accuracy benchmark: ensemble vs single-parameterization RRA.

Scores the parameter-free :class:`~repro.core.ensemble.EnsembleDetector`
against every *single* parameterization it contains, on the Table-1
stand-in datasets and noisy variants, and records the hit-rates in
``BENCH_ensemble.json``.

Protocol
--------
Each dataset gets a *relative* member grid derived from the paper's own
window for that row — windows at 0.5x / 1.0x / 1.5x the paper window,
crossed with PAA and alphabet sizes — so the same relative grid
position ("half the paper window, PAA 4, alphabet 3") is comparable
across datasets.  For every variant of every dataset:

* each single member runs the ordinary pipeline and scores a **hit**
  when its top-ranked RRA discord overlaps a true anomaly (>= 50% of
  the shorter interval, the repo-wide criterion);
* the ensemble runs the *same* grid through `EnsembleDetector` and
  scores a hit when its top merged discord overlaps a true anomaly.

A member that is invalid for some dataset (window too long) counts as
a miss for that dataset — a fixed parameter choice that cannot run IS
a failure of that choice, and the honest comparison charges it.

Targets (explicit in the issue):

* **clean**: ensemble hit-rate >= the best single grid position;
* **noisy** (+- sigma/5 i.i.d. Gaussian, fixed seed): ensemble
  hit-rate >= the median single grid position.

The noisy target is deliberately weaker: noise can favour whichever
single parameterization happens to match the noise scale, so the
ensemble only promises to beat the *typical* fixed choice there, not
the after-the-fact best one.

Invocations::

    PYTHONPATH=src python benchmarks/bench_ensemble.py            # full Table 1
    PYTHONPATH=src python benchmarks/bench_ensemble.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_ensemble.py --quick --lenient

``--lenient`` downgrades missed targets to warnings (exit 0) while
still writing the report — CI uses it so a noisy shared runner cannot
fail the build on an accuracy coin-flip, while the uploaded artifact
keeps the real numbers inspectable.  Under pytest the quick subset
runs non-lenient; the full Table-1 run is ``@pytest.mark.slow``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics

import numpy as np
import pytest

from repro.core.ensemble import (
    EnsembleDetector,
    EnsembleMember,
    evaluate_member,
)
from repro.datasets.registry import table1_rows

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ensemble.json"

NOISE_FRACTION = 0.2  # +- sigma/5
NOISE_SEED = 1234
QUICK_KEYS = ("ecg_qtdb_0606", "respiration_nprs43", "shuttle_TEK14")

FULL_FACTORS = (0.5, 1.0, 1.5)
FULL_PAAS = (4, 6)
FULL_ALPHABETS = (3, 5)
QUICK_FACTORS = (0.5, 1.0)
QUICK_PAAS = (4, 6)
QUICK_ALPHABETS = (3,)


def relative_grid(window: int, length: int, *, quick: bool):
    """(label, member) pairs for one dataset's paper window.

    Labels name the *relative* grid position so hit-rates can be
    compared per-position across datasets with different windows.
    """
    factors = QUICK_FACTORS if quick else FULL_FACTORS
    paas = QUICK_PAAS if quick else FULL_PAAS
    alphabets = QUICK_ALPHABETS if quick else FULL_ALPHABETS
    pairs = []
    for factor in factors:
        w = max(16, int(round(window * factor)))
        for paa in paas:
            if paa > w:
                continue
            for alphabet in alphabets:
                label = f"w{factor:g}x/p{paa}/a{alphabet}"
                pairs.append((label, EnsembleMember(w, paa, alphabet)))
    return pairs


def _variants(dataset, *, noise_seed: int):
    sigma = float(np.std(dataset.series))
    rng = np.random.default_rng(noise_seed)
    noisy = dataset.series + (sigma * NOISE_FRACTION) * rng.standard_normal(
        dataset.series.size
    )
    return (("clean", dataset.series), ("noisy", noisy))


def score_dataset(row, dataset, *, quick: bool):
    """Per-variant hits for every single grid position and the ensemble."""
    pairs = relative_grid(row.window, dataset.length, quick=quick)
    out = {}
    for variant, series in _variants(dataset, noise_seed=NOISE_SEED):
        singles = {}
        for label, member in pairs:
            outcome = evaluate_member(series, member, num_discords=1)
            hit = outcome.status == "ok" and any(
                dataset.contains_hit(d.start, d.end) for d in outcome.discords
            )
            singles[label] = bool(hit)
        result = EnsembleDetector(
            [member for _, member in pairs],
            num_discords=2,
        ).fit(series)
        best = result.best
        out[variant] = {
            "singles": singles,
            "ensemble": bool(
                best is not None and dataset.contains_hit(best.start, best.end)
            ),
            "ensemble_support": 0 if best is None else int(best.support),
        }
    return out


def run(quick: bool = False) -> dict:
    rows = [
        row for row in table1_rows() if not quick or row.key in QUICK_KEYS
    ]
    per_dataset = {}
    for row in rows:
        dataset = row.factory()
        per_dataset[row.key] = score_dataset(row, dataset, quick=quick)

    report_variants = {}
    for variant in ("clean", "noisy"):
        labels = sorted(
            {
                label
                for scores in per_dataset.values()
                for label in scores[variant]["singles"]
            }
        )
        single_rates = {
            label: statistics.mean(
                # a position absent for some dataset was invalid there: a miss
                1.0 if per_dataset[key][variant]["singles"].get(label) else 0.0
                for key in per_dataset
            )
            for label in labels
        }
        ensemble_rate = statistics.mean(
            1.0 if per_dataset[key][variant]["ensemble"] else 0.0
            for key in per_dataset
        )
        best_single = max(single_rates.values())
        median_single = statistics.median(single_rates.values())
        target = best_single if variant == "clean" else median_single
        report_variants[variant] = {
            "ensemble_hit_rate": ensemble_rate,
            "single_hit_rates": single_rates,
            "best_single": best_single,
            "median_single": median_single,
            "target": target,
            "target_kind": "best_single" if variant == "clean" else "median_single",
            "meets_target": ensemble_rate >= target,
        }

    return {
        "mode": "quick" if quick else "full",
        "cpu_count": os.cpu_count(),
        "datasets": list(per_dataset),
        "noise": {"fraction": NOISE_FRACTION, "seed": NOISE_SEED},
        "grid": {
            "factors": list(QUICK_FACTORS if quick else FULL_FACTORS),
            "paa_sizes": list(QUICK_PAAS if quick else FULL_PAAS),
            "alphabet_sizes": list(QUICK_ALPHABETS if quick else FULL_ALPHABETS),
        },
        "variants": report_variants,
        "per_dataset": per_dataset,
        "note": (
            "hit = top-ranked discord overlaps a true anomaly (>= 50% of the "
            "shorter interval).  Single members that cannot run on a dataset "
            "(window too long) are charged as misses for that position.  The "
            "clean target compares against the after-the-fact BEST single "
            "grid position; the noisy target against the MEDIAN position, "
            "since noise can favour whichever fixed choice matches its "
            "scale.  Synthetic stand-in datasets, not the paper's originals "
            "— rates are comparable within this benchmark, not to Table 1."
        ),
    }


def _assert_targets(report: dict) -> None:
    for variant, data in report["variants"].items():
        assert data["meets_target"], (variant, data)


def test_ensemble_accuracy_quick():
    """Pytest entry point: quick subset, targets enforced."""
    report = run(quick=True)
    _assert_targets(report)
    for variant, data in report["variants"].items():
        print(
            f"{variant}: ensemble {data['ensemble_hit_rate']:.2f} vs "
            f"{data['target_kind']} {data['target']:.2f}"
        )


@pytest.mark.slow
def test_ensemble_accuracy_full():
    """Full Table-1 accuracy run (slow-marked; CI runs it off the hot path)."""
    report = run(quick=False)
    _assert_targets(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="three-dataset subset and a smaller grid, for CI smoke runs",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="downgrade missed accuracy targets to warnings (exit 0)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[report saved to {args.output}]")
    failed = False
    for variant, data in report["variants"].items():
        status = "ok" if data["meets_target"] else "MISS"
        print(
            f"{variant:>6s}: ensemble {data['ensemble_hit_rate']:.2f}  "
            f"best-single {data['best_single']:.2f}  "
            f"median-single {data['median_single']:.2f}  "
            f"target({data['target_kind']}) {data['target']:.2f}  [{status}]"
        )
        if not data["meets_target"]:
            failed = True
    if failed and not args.lenient:
        print("FAIL: ensemble below target hit-rate")
        return 1
    if failed:
        print("WARN: ensemble below target hit-rate (lenient mode)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
