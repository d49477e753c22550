"""Exact counting of universal index sets and the normalized log-count curve."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .index_core import IndexSet, PrimePowerModulus
from .universality import is_universal


@dataclass(frozen=True)
class BasePExpansion:
    """Base-p digits of d, most significant first, padded to M places.

    suffixes[i] = sum of the place values strictly below digit i, so
    suffixes[0] drops the leading digit's contribution and suffixes[M]
    is 0.
    """

    d: int
    p: int
    m: int
    digits: tuple[int, ...]
    suffixes: tuple[int, ...]


def base_p_expansion(d: int, modulus: PrimePowerModulus) -> BasePExpansion:
    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    p, m = modulus.p, modulus.m
    digits = []
    rest = d
    for i in range(m):
        place = p ** (m - 1 - i)
        q, rest = divmod(rest, place)
        digits.append(q)
    suffixes = [d]
    acc = d
    for i, digit in enumerate(digits):
        acc -= digit * p ** (m - 1 - i)
        suffixes.append(acc)
    # suffixes[i] = d_i in the product formula (tail after digit i)
    return BasePExpansion(d, p, m, tuple(digits), tuple(suffixes[1:]))


def count_universal(d: int, modulus: PrimePowerModulus) -> int:
    """Exact number of universal subsets of [0:p^M-1] with cardinality d.

    The whole group is the only set of size d = N, so that case returns
    1 at once. The product formula agrees: the leading digit of N is
    then p, and that place contributes C(p, p+1)^0 * C(p, p)^(p^(M-1)) = 1.
    """
    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    if d == modulus.n:
        return 1
    p, m = modulus.p, modulus.m
    exp = base_p_expansion(d, modulus)
    total = 1
    for i in range(m):
        alpha = exp.digits[i]
        d_i = exp.suffixes[i]
        block = p ** (m - 1 - i)
        total *= math.comb(p, alpha + 1) ** d_i
        total *= math.comb(p, alpha) ** (block - d_i)
    return total


def count_by_brute_force(
    d: int, modulus: PrimePowerModulus, budget: int = 1 << 24
) -> int:
    """Count by enumerating every d-subset and testing each one."""
    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    total_subsets = math.comb(modulus.n, d)
    if total_subsets > budget:
        raise ValueError(
            f"C({modulus.n},{d}) = {total_subsets} subsets exceeds the "
            f"enumeration budget of {budget}"
        )
    n = modulus.n
    return sum(
        1
        for combo in combinations(range(n), d)
        if is_universal(IndexSet(n, combo), modulus).is_universal
    )


def _log_exact(value: int) -> float:
    """Natural log of a positive big integer without float overflow.

    Splitting off the high bits keeps the mantissa well inside double
    range; the relative error is a few ulps.
    """
    if value <= 0:
        raise ValueError("log of nonpositive count")
    e = max(0, value.bit_length() - 53)
    return math.log(value >> e) + e * math.log(2)


def entropy_curve(
    p: int, m: int, resolution: int
) -> list[tuple[float, float]]:
    """Normalized log-counts log C(floor(alpha*N), N) / N at equally
    spaced alpha in [0, 1]. Both endpoints give exactly 0."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    modulus = PrimePowerModulus(p, m)
    n = modulus.n
    rows = []
    for i in range(resolution):
        alpha = i / (resolution - 1)
        d = min(n, math.floor(alpha * n))
        value = _log_exact(count_universal(d, modulus)) / n
        rows.append((alpha, value))
    return rows
