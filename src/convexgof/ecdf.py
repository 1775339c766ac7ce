"""Samples, empirical-CDF conventions, cross-sample ties and sample files.

An empirical CDF is a count of observations over the sample size.
``right-continuous`` counts observations <= x; ``mid`` averages the left
and right limits, which softens the effect of ties on the step function.
The statistics evaluate these counts from pooled ranks, so applying the same
strictly increasing map to every sample leaves every value bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataIngestionError, InvalidParameterError

RIGHT_CONTINUOUS = "right-continuous"
MID = "mid"
CONVENTIONS = (RIGHT_CONTINUOUS, MID)


@dataclass(frozen=True)
class Sample:
    """A finite sample of real observations plus its sorted copy."""

    values: np.ndarray
    label: str = ""
    sorted_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidParameterError(
                f"sample '{self.label}' must be a nonempty 1-d sequence of reals"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError(
                f"sample '{self.label}' contains non-finite values"
            )
        vals.setflags(write=False)
        srt = np.sort(vals)
        srt.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sorted_values", srt)

    @property
    def n(self) -> int:
        return self.values.size


def cross_tie_count(a: Sample, b: Sample) -> int:
    """Number of tied cross-sample pairs (x_i == y_j).

    Nonzero counts mean the continuous-distribution assumption behind the
    theory is violated on this data; reports surface a warning.
    """
    common, ia, ib = np.intersect1d(a.sorted_values, b.sorted_values, return_indices=True)
    if common.size == 0:
        return 0
    ca = np.searchsorted(a.sorted_values, common, side="right") - np.searchsorted(
        a.sorted_values, common, side="left")
    cb = np.searchsorted(b.sorted_values, common, side="right") - np.searchsorted(
        b.sorted_values, common, side="left")
    return int(np.sum(ca * cb))


def read_sample(path, label: str | None = None) -> Sample:
    """Read a single-column sample from a text/CSV file.

    ``#`` starts a comment, blank lines are skipped, and each remaining line
    must hold exactly one real number.  Parse failures name the file and
    line number.
    """
    values = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataIngestionError(f"cannot read '{path}': {exc.strerror or exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.replace(",", " ").split()
            if len(tokens) != 1:
                raise DataIngestionError(
                    f"{path}:{lineno}: expected one value per line, got {len(tokens)} tokens"
                )
            try:
                v = float(tokens[0])
            except ValueError:
                raise DataIngestionError(
                    f"{path}:{lineno}: cannot parse '{tokens[0]}' as a number"
                ) from None
            if not np.isfinite(v):
                raise DataIngestionError(f"{path}:{lineno}: non-finite value '{tokens[0]}'")
            values.append(v)
    if not values:
        raise DataIngestionError(f"{path}: no data rows found")
    import os

    return Sample(np.asarray(values), label=label if label is not None else os.path.basename(str(path)))
