"""Small statistics helpers for experiment shape assertions.

The figure benches assert *shapes* ("grows linearly", "flat", "unstable
across trials"); these helpers turn those phrases into numbers:

* :func:`linear_fit` — least-squares slope/intercept/R² (linearity);
* :func:`flatness` — max/min ratio of a series (constancy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearFit", "linear_fit", "flatness"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r2: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares over ``(xs, ys)``.

    R² is 1.0 for a perfectly linear series; benches assert e.g.
    ``fit.r2 > 0.98 and fit.slope > 0`` for "grows roughly linearly".
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r2=r2)


def flatness(ys: Sequence[float]) -> float:
    """max/min ratio; 1.0 = perfectly flat.  Series must be positive."""
    if not ys:
        raise ValueError("empty series")
    lo = min(ys)
    if lo <= 0:
        raise ValueError("flatness needs positive values")
    return max(ys) / lo

