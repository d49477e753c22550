import math
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisamp import (
    PrimePowerModulus,
    base_p_expansion,
    count_by_brute_force,
    count_universal,
    entropy_curve,
)


def _log_exact(value: int) -> float:
    """Natural log of a positive big integer without float overflow: the
    exact reference for entropy_curve, which sums logs of binomials.

    Splitting off the high bits keeps the mantissa well inside double
    range; the relative error is a few ulps.
    """
    if value <= 0:
        raise ValueError("log of nonpositive count")
    e = max(0, value.bit_length() - 53)
    return math.log(value >> e) + e * math.log(2)


M8 = PrimePowerModulus(2, 3)
M9 = PrimePowerModulus(3, 2)
M16 = PrimePowerModulus(2, 4)
M27 = PrimePowerModulus(3, 3)


class TestExpansion:
    def test_fixture(self):
        e = base_p_expansion(7, M9)
        assert e.digits == (2, 1)
        assert e.suffixes == (1, 0)

    @given(st.data())
    @settings(max_examples=150)
    def test_reconstruction(self, data):
        modulus = data.draw(st.sampled_from([M8, M9, M16, M27]))
        d = data.draw(st.integers(0, modulus.n - 1))
        e = base_p_expansion(d, modulus)
        p, m = modulus.p, modulus.m
        assert all(0 <= a < p for a in e.digits)
        assert sum(a * p ** (m - 1 - i) for i, a in enumerate(e.digits)) == d
        assert e.suffixes[-1] == 0
        for i in range(m):
            tail = sum(
                e.digits[j] * p ** (m - 1 - j) for j in range(i + 1, m)
            )
            assert e.suffixes[i] == tail


class TestCountUniversal:
    def test_power_of_p_fixture(self):
        assert count_universal(4, M8) == 16
        assert count_universal(8, M16) == 256
        assert count_universal(2, M8) == 16  # (8/2)^2

    def test_nine_seven(self):
        assert count_universal(7, M9) == 27

    def test_edges(self):
        assert count_universal(0, M8) == 1
        assert count_universal(8, M8) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_universal(9, M8)

    @pytest.mark.parametrize("modulus", [M8, M9, M16, M27])
    def test_symmetry(self, modulus):
        for d in range(modulus.n + 1):
            assert count_universal(d, modulus) == count_universal(
                modulus.n - d, modulus
            )

    @pytest.mark.parametrize("modulus", [M8, M9, M16])
    def test_matches_brute_force(self, modulus):
        for d in range(modulus.n + 1):
            assert count_universal(d, modulus) == count_by_brute_force(d, modulus)

    @given(st.data())
    @settings(max_examples=100)
    def test_recurrence_on_leading_digit(self, data):
        """Peeling the leading digit leaves the same count one level down."""
        modulus = data.draw(st.sampled_from([M8, M9, M16, M27]))
        p, m = modulus.p, modulus.m
        if m < 2:
            return
        d = data.draw(st.integers(0, modulus.n - 1))
        e = base_p_expansion(d, modulus)
        lower = PrimePowerModulus(p, m - 1)
        d1 = e.suffixes[0]
        expected = (
            math.comb(p, e.digits[0] + 1) ** d1
            * math.comb(p, e.digits[0]) ** (p ** (m - 1) - d1)
            * count_universal(d1, lower)
        )
        assert count_universal(d, modulus) == expected

    @given(st.data())
    @settings(max_examples=100)
    def test_scaling_law(self, data):
        modulus = data.draw(st.sampled_from([M8, M16, M27, PrimePowerModulus(2, 6)]))
        p, m = modulus.p, modulus.m
        if m < 2:
            return
        d = data.draw(st.integers(0, p ** (m - 1) - 1))
        lower = PrimePowerModulus(p, m - 1)
        assert count_universal(d, modulus) == p ** d * count_universal(d, lower)

    @pytest.mark.parametrize("modulus", [M8, M9, M16, M27])
    def test_bounded_by_binomial(self, modulus):
        for d in range(modulus.n + 1):
            assert 1 <= count_universal(d, modulus) <= math.comb(modulus.n, d)


class TestBruteForce:
    def test_full_set(self):
        assert count_by_brute_force(8, M8) == 1

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            count_by_brute_force(16, PrimePowerModulus(2, 5))  # C(32, 16) > 2^24


class TestLogExact:
    @given(st.integers(1, 10 ** 400))
    @settings(max_examples=200)
    def test_matches_high_precision(self, value):
        with mpmath.workdps(60):
            want = float(mpmath.log(value))
        got = _log_exact(value)
        assert got == pytest.approx(want, rel=1e-12)


class TestEntropyCurve:
    def test_endpoints_zero(self):
        rows = entropy_curve(2, 4, 9)
        assert rows[0] == (0.0, 0.0)
        assert rows[-1][0] == 1.0 and rows[-1][1] == 0.0

    def test_symmetry_on_exact_grid(self):
        # resolution chosen so floor(alpha*N) pairs sum to N exactly
        n = 16
        rows = entropy_curve(2, 4, n + 1)
        for i in range(n + 1):
            assert rows[i][1] == pytest.approx(rows[n - i][1], abs=1e-12)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            entropy_curve(2, 3, 1)

    def test_values_against_direct_formula(self):
        rows = dict(entropy_curve(2, 3, 5))
        assert rows[0.5] == pytest.approx(math.log(16) / 8)

    @pytest.mark.parametrize("p, m", [(2, 10), (3, 6), (5, 4), (7, 3)])
    def test_matches_exact_log_count(self, p, m):
        modulus = PrimePowerModulus(p, m)
        n = modulus.n
        for alpha, value in entropy_curve(p, m, 33):
            d = min(n, math.floor(alpha * n))
            want = _log_exact(count_universal(d, modulus)) / n
            assert value == pytest.approx(want, rel=0, abs=1e-12), (p, m, d)

    def test_hostile_depth_is_instant(self):
        """N = 2^40: the middle count is 2^(2^39), past any exact product.
        N = p = 10^9 + 7: the middle count is C(p, (p - 1)/2), whose log
        is p log 2 - log(pi (p + 1)/2)/2 to within 1/p (Stirling)."""
        p = 1000000007
        cases = [((2, 40), math.log(2) / 2),
                 ((p, 1), math.log(2) - math.log(math.pi * (p + 1) / 2) / 2 / p)]
        for (base, m), want in cases:
            start = time.perf_counter()
            rows = entropy_curve(base, m, 3)
            assert time.perf_counter() - start < 1.0
            assert rows[1][0] == 0.5
            assert rows[1][1] == pytest.approx(want, rel=0, abs=1e-12)
            assert rows[0][1] == rows[2][1] == 0.0

    @pytest.mark.parametrize("alpha", [1 / 3, 0.2])
    def test_stabilizes_in_depth(self, alpha):
        """Normalized log-counts at fixed alpha settle as M grows."""
        values = []
        for m in range(8, 15):
            modulus = PrimePowerModulus(2, m)
            d = math.floor(alpha * modulus.n)
            values.append(_log_exact(count_universal(d, modulus)) / modulus.n)
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        assert all(x < 0.05 for x in diffs)
