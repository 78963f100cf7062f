"""Exact scalar helpers: binomials, factorials, lcm scale."""

import math

import pytest

from recint.scalars import binomial, factorial, lcm_upto


class TestBinomial:
    def test_small_table(self):
        assert [binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]
        assert binomial(0, 0) == 1
        assert binomial(10, 5) == 252

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_upper_index_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_identity_exhaustive(self):
        # addition rule over the full triangle, n up to 64
        for n in range(1, 65):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_matches_math_comb_in_range(self):
        for n in range(30):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)


class TestFactorialAndLcm:
    def test_factorial_values(self):
        assert [factorial(n) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]

    def test_factorial_negative_raises(self):
        with pytest.raises(ValueError):
            factorial(-1)

    def test_lcm_upto_values(self):
        assert [lcm_upto(n) for n in range(11)] == [
            1, 1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520,
        ]

    def test_lcm_upto_negative_raises(self):
        with pytest.raises(ValueError):
            lcm_upto(-3)

    def test_lcm_upto_divides_factorial(self):
        for n in range(101):
            assert factorial(n) % lcm_upto(n) == 0

    def test_lcm_upto_is_monotone_and_divisible_chain(self):
        prev = 1
        for n in range(1, 80):
            cur = lcm_upto(n)
            assert cur % prev == 0
            prev = cur
