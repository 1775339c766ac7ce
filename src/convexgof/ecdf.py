"""Samples, empirical-CDF conventions and sample files.

An empirical CDF is a count of observations over the sample size.
``right-continuous`` counts observations <= x; ``mid`` averages the left
and right limits, which softens the effect of ties on the step function.
The statistics evaluate these counts from pooled ranks, so applying the same
strictly increasing map to every sample leaves every value bit-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataIngestionError, InvalidParameterError

RIGHT_CONTINUOUS = "right-continuous"
MID = "mid"
CONVENTIONS = (RIGHT_CONTINUOUS, MID)


@dataclass(frozen=True)
class Sample:
    """A finite sample of real observations, read-only."""

    values: np.ndarray
    label: str = ""

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
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


def read_sample(path, label: str | None = None) -> Sample:
    """Read a single-column sample from a text/CSV file.

    ``#`` starts a comment, blank lines are skipped, and each remaining line
    must hold exactly one real number, with no digit underscores.  Parse
    failures name the file and line number.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataIngestionError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataIngestionError(f"cannot read '{path}': not UTF-8 text ({exc.reason})") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.replace(",", " ").split()
        if len(tokens) != 1:
            raise DataIngestionError(
                f"{path}:{lineno}: expected one value per line, got {len(tokens)} tokens"
            )
        try:
            if "_" in tokens[0]:  # float() reads digit underscores: '1_5' would be 15.0
                raise ValueError
            v = float(tokens[0])
        except ValueError:
            raise DataIngestionError(
                f"{path}:{lineno}: cannot parse '{tokens[0]}' as a number"
            ) from None
        if not math.isfinite(v):
            raise DataIngestionError(f"{path}:{lineno}: non-finite value '{tokens[0]}'")
        values.append(v)
    if not values:
        raise DataIngestionError(f"{path}: no data rows found")
    return Sample(np.asarray(values), label=label if label is not None else os.path.basename(str(path)))
