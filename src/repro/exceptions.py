"""Exception hierarchy for the :mod:`repro` library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so downstream code can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """An invalid parameter value was supplied (bad window, alphabet, ...)."""


class DiscretizationError(ReproError):
    """The SAX discretization step could not be performed."""


class GrammarError(ReproError):
    """A grammar induction invariant was violated or a rule is malformed."""


class DiscordSearchError(ReproError):
    """A discord search could not run (e.g. series shorter than window)."""


class DatasetError(ReproError):
    """A dataset generator or loader received inconsistent arguments."""


class GridCellError(ReproError):
    """One grid cell or ensemble member failed; the message names the
    failing ``(window, paa_size, alphabet_size)`` triple so a single bad
    cell in a thousand-cell sweep is immediately localizable.

    Built with a plain message string (and the triple re-attached as
    :attr:`cell`) so instances survive the pickling round trip from a
    pool worker intact.
    """

    def __init__(self, message: str, cell: tuple = ()) -> None:
        super().__init__(message)
        self.cell = tuple(cell)

    @classmethod
    def from_exception(cls, cell: tuple, exc: BaseException) -> "GridCellError":
        """The error for *cell* failing with *exc* (raise it ``from exc``)."""
        window, paa_size, alphabet_size = (int(v) for v in cell)
        return cls(
            f"grid cell (window={window}, paa_size={paa_size}, "
            f"alphabet_size={alphabet_size}) failed: "
            f"{type(exc).__name__}: {exc}",
            (window, paa_size, alphabet_size),
        )

    def __reduce__(self):
        return (type(self), (self.args[0], self.cell))


class DataQualityError(ReproError):
    """The input series failed the data-quality gate (NaN/Inf/gaps)."""


class CheckpointError(ReproError):
    """A search checkpoint is missing, corrupt, or inconsistent."""


class TrajectoryError(ReproError):
    """A trajectory conversion error (bad coordinates, empty trail, ...)."""
