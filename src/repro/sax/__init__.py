"""SAX (Symbolic Aggregate approXimation) discretization.

Implements the discretization front-end of the paper (Section 3.1–3.2):
z-normalized sliding windows are reduced with PAA, mapped to symbols via
Gaussian equiprobable breakpoints, and the resulting word stream is
compacted with numerosity reduction so that Sequitur sees one token per
*shape change* rather than one per point.
"""

from repro.sax.alphabet import (
    MAX_ALPHABET_SIZE,
    MIN_ALPHABET_SIZE,
    alphabet_letters,
    breakpoints,
    breakpoints_array,
    letter_indices,
    symbol_for_value,
    symbols_for_values,
)
from repro.sax.sax import sax_word, mindist, symbol_distance_matrix
from repro.sax.discretize import (
    NumerosityReduction,
    SAXWord,
    Discretization,
    discretize,
)

__all__ = [
    "MAX_ALPHABET_SIZE",
    "MIN_ALPHABET_SIZE",
    "breakpoints",
    "breakpoints_array",
    "alphabet_letters",
    "symbol_for_value",
    "symbols_for_values",
    "sax_word",
    "mindist",
    "symbol_distance_matrix",
    "letter_indices",
    "NumerosityReduction",
    "SAXWord",
    "Discretization",
    "discretize",
]
