"""The numeric rules the package writes once: the two that every numeric
parameter of the public API is checked by, and the one that averages a vector
over a count.

Each check takes the parameter's name, its value and its bounds, and returns
the value or raises ``ValueError`` naming both.  A bool is neither an integer
nor a real here, though Python counts it as both.

Every mean of a vector over a count (a shard's samples, the workers, the two
middle rows of an even median) goes through :func:`divide_by_count`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def integer(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int, if it is an integer (not a bool) in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= int(value) <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def real(name: str, value, interval: str = "(-inf, inf)") -> float:
    """``value`` as a float, if it is a real (not a bool) that is finite as a
    float and lies in ``interval``, written like ``"[0, 1)"``: a bracket for a
    closed end, a parenthesis for an open one."""
    low, high = map(float, interval[1:-1].split(","))
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        x = math.inf
    if not (
        math.isfinite(x)
        and (low <= x if interval[0] == "[" else low < x)
        and (x <= high if interval[-1] == "]" else x < high)
    ):
        raise ValueError(f"{name} must be a finite real in {interval}, got {value!r}")
    return x


def divide_by_count(values: np.ndarray, n: int) -> np.ndarray:
    """``values / n`` in place, for a count ``n``, returning ``values``.

    A power of two n is applied as a product with ``1.0 / n``: that
    reciprocal is exact, so the product rounds the same real number the
    quotient does and has its bits for every float, subnormals, signed
    zeros, infinities and NaN payloads included, while a multiply costs
    a fraction of a divide.  Any other n divides.
    """
    if n > 0 and not n & (n - 1):
        values *= 1.0 / n
    else:
        values /= n
    return values
