"""Four-way exact-search comparison (beyond the paper's Table 1).

The paper compares brute force, HOTSAX, and RRA; its related-work
section also cites Haar-wavelet-ordered searches (Fu et al. 2006, Bu et
al.'s WAT).  This bench runs all four exact algorithms on one dataset:
they must agree on the discord (all are exact), and the call counts
order as  RRA < {HOTSAX, Haar} << brute force.
"""

from __future__ import annotations

from repro.core.pipeline import GrammarAnomalyDetector
from repro.datasets import ecg_qtdb_0606_like
from repro.discord.brute_force import brute_force_call_count, brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.evaluation import overlap_fraction


def _run():
    dataset = ecg_qtdb_0606_like()
    brute = brute_force_discords(
        dataset.series, dataset.window, num_discords=1, early_abandon=True
    )
    hotsax = hotsax_discords(
        dataset.series, dataset.window, num_discords=1,
        paa_size=dataset.paa_size, alphabet_size=dataset.alphabet_size,
    )
    haar = haar_discords(dataset.series, dataset.window, num_discords=1)
    detector = GrammarAnomalyDetector(
        dataset.window, dataset.paa_size, dataset.alphabet_size
    )
    detector.fit(dataset.series)
    rra = detector.discords(num_discords=1)
    return (
        dataset,
        (brute.best, brute.distance_calls),
        (hotsax.best, hotsax.distance_calls),
        (haar.best, haar.distance_calls),
        rra,
    )


def test_baselines_agree_and_order_by_calls(benchmark, results):
    dataset, brute_row, hotsax_row, haar_row, rra = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    brute, brute_calls = brute_row
    hotsax, hotsax_calls = hotsax_row
    haar, haar_calls = haar_row

    # the three fixed-length exact searches return the same discord
    assert (hotsax.start, hotsax.end) == (brute.start, brute.end)
    assert (haar.start, haar.end) == (brute.start, brute.end)
    assert abs(hotsax.nn_distance - brute.nn_distance) < 1e-9
    assert abs(haar.nn_distance - brute.nn_distance) < 1e-9

    # RRA's variable-length discord overlaps the fixed-length one
    best = rra.best
    overlap = overlap_fraction(
        (best.start, best.end), (brute.start, brute.end)
    )

    # ordering heuristics beat the full count; RRA beats everything
    full = brute_force_call_count(dataset.length, dataset.window)
    assert hotsax_calls < full
    assert haar_calls < full
    assert rra.distance_calls < min(hotsax_calls, haar_calls)

    results(
        "baselines_comparison",
        "\n".join(
            [
                f"{dataset.name}, length {dataset.length}, "
                f"window {dataset.window}",
                f"{'algorithm':>14s} {'calls':>12s}  discord",
                f"{'brute (full)':>14s} {full:>12d}  (closed form)",
                f"{'brute (EA)':>14s} {brute_calls:>12d}  "
                f"[{brute.start}, {brute.end})",
                f"{'HOTSAX':>14s} {hotsax_calls:>12d}  "
                f"[{hotsax.start}, {hotsax.end})",
                f"{'Haar':>14s} {haar_calls:>12d}  "
                f"[{haar.start}, {haar.end})",
                f"{'RRA':>14s} {rra.distance_calls:>12d}  "
                f"[{best.start}, {best.end}) len {best.length}",
                f"RRA/fixed-length discord overlap: {100 * overlap:.1f}%",
            ]
        ),
    )
