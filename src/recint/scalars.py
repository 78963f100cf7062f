"""Exact integer helpers: binomials, factorials and lcm(1..n), with no floating point."""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with binomial(n, k) = 0 for k < 0 or k > n.

    The out-of-range convention is load-bearing: several alternating sums
    in this package index binomials past their natural range and rely on
    those terms vanishing.
    """
    if n < 0:
        raise ValueError(f"binomial: negative upper index {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial: negative argument {n}")
    return math.factorial(n)


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n), the classical denominator scale; lcm_upto(0) = 1."""
    if n < 0:
        raise ValueError(f"lcm_upto: negative argument {n}")
    return math.lcm(*range(1, n + 1))
