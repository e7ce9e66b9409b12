"""Fixed-length discord discovery baselines (brute force, HOTSAX).

These are the comparison algorithms of the paper's Table 1.  Both find
the classic Keogh-style discord: the fixed-length subsequence with the
largest Euclidean distance to its nearest non-self match.
"""

from repro._lazy import lazy_exports

#: Module → the public names taken from it, each imported on first
#: access (DESIGN §17).  ``__all__`` lists these names.
_EXPORTS = {
    "repro.discord.brute_force": (
        "brute_force_call_count",
        "brute_force_discord",
        "brute_force_discords",
    ),
    "repro.discord.hotsax": ("HOTSAXResult", "hotsax_discord", "hotsax_discords"),
    "repro.discord.haar": ("HaarResult", "haar_discord", "haar_discords"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
