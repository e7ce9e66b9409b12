#!/usr/bin/env python
"""A tour of the related-work baselines (paper Section 6).

The paper positions grammar-based discovery against three families of
prior art, all implemented in this library:

* exact discord search with ordering heuristics — HOTSAX (SAX words)
  and the Haar-coefficient variant;
* compression-based scoring — WCAD (off-the-shelf compressor);
* symbolic frequency analysis — time-series bitmaps and the VizTree
  SAX trie.

This example runs each on one dataset and prints what it sees, ending
with the grammar-based result for contrast.

Run:  python examples/related_work_tour.py
"""

from repro import GrammarAnomalyDetector
from repro.baselines import SAXTrie, bitmap_anomalies, wcad_anomalies
from repro.datasets import ecg_qtdb_0606_like
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords


def main() -> None:
    dataset = ecg_qtdb_0606_like()
    (t0, t1), = dataset.anomalies
    print(f"dataset: {dataset.description}")
    print(f"length {dataset.length}, truth [{t0}, {t1})\n")

    def verdict(start: int, end: int) -> str:
        return "HIT" if dataset.contains_hit(start, end, min_overlap=0.3) else "miss"

    # --- exact searches with different ordering heuristics
    hotsax_result = hotsax_discords(
        dataset.series, dataset.window, num_discords=1,
        paa_size=dataset.paa_size, alphabet_size=dataset.alphabet_size,
    )
    haar_result = haar_discords(dataset.series, dataset.window, num_discords=1)
    hotsax, haar = hotsax_result.best, haar_result.best
    print("exact discord searches (identical result, different call counts):")
    print(f"  HOTSAX: [{hotsax.start}, {hotsax.end}) "
          f"{verdict(hotsax.start, hotsax.end)}  "
          f"({hotsax_result.distance_calls} calls)")
    print(f"  Haar:   [{haar.start}, {haar.end}) "
          f"{verdict(haar.start, haar.end)}  "
          f"({haar_result.distance_calls} calls)")

    # --- compression scoring (WCAD)
    wcad = wcad_anomalies(dataset.series, dataset.window, num_anomalies=1)[0]
    print(f"\nWCAD (zlib window scoring): [{wcad.start}, {wcad.end}) "
          f"{verdict(wcad.start, wcad.end)}  (score {wcad.score:.0f} bytes)")

    # --- bitmap change detection
    bitmap = bitmap_anomalies(
        dataset.series, num_anomalies=1,
        lag=2 * dataset.window, lead=dataset.window, stride=4,
    )[0]
    print(f"bitmap (lead/lag subword divergence): [{bitmap.start}, "
          f"{bitmap.end}) {verdict(bitmap.start, bitmap.end)}  "
          f"(score {bitmap.score:.3f})")

    # --- the VizTree view: rare words
    trie = SAXTrie(dataset.series, dataset.window, 6, 4)
    print("\nVizTree rarest SAX words (thin branches):")
    for position, word, count in trie.anomaly_candidates(max_candidates=3):
        marker = "<- inside truth" if t0 - dataset.window <= position <= t1 else ""
        print(f"  {word} (count {count}) at {position} {marker}")

    # --- the grammar-based result, for contrast
    detector = GrammarAnomalyDetector(
        dataset.window, dataset.paa_size, dataset.alphabet_size
    )
    detector.fit(dataset.series)
    rra = detector.discords(num_discords=1)
    best = rra.best
    print(f"\nRRA (this paper): [{best.start}, {best.end}) length "
          f"{best.length} {verdict(best.start, best.end)}  "
          f"({rra.distance_calls} calls — variable length, no anomaly "
          f"length given)")


if __name__ == "__main__":
    main()
