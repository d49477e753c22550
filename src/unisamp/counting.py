"""Exact counting of universal index sets, the normalized log-count
curve, and bracelet counts.

All of it is integer arithmetic on base-p digits and binomials, so this
module imports no numpy: `count`, `entropy` and `bracelets --count` run
without it. `bracelet_count` lives here rather than in `index_core`,
which re-exports it; `count_by_brute_force` imports the numpy-backed
verdict on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .base import PrimePowerModulus


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
    places = [p ** (m - 1 - i) for i in range(m)]
    suffixes = [d % place for place in places]  # d_i of the product formula
    digits = [(hi - lo) // place for hi, lo, place in zip([d, *suffixes], suffixes, places)]
    return BasePExpansion(d, p, m, tuple(digits), tuple(suffixes))


def _factors(d: int, modulus: PrimePowerModulus):
    """(a, exponent) pairs: the number of universal d-sets is the product
    of C(p, a) ** exponent, C(p, a_i + 1) ** d_i and
    C(p, a_i) ** (p^(M-1-i) - d_i) for each digit a_i of d."""
    exp = base_p_expansion(d, modulus)
    p, m = modulus.p, modulus.m
    for i, (alpha, d_i) in enumerate(zip(exp.digits, exp.suffixes)):
        yield alpha + 1, d_i
        yield alpha, p ** (m - 1 - i) - d_i


def _log_count(d: int, modulus: PrimePowerModulus, scale: int = 1) -> float:
    """log count_universal(d, modulus) / scale in O(M), without forming
    the count or a binomial: the exponents of each distinct
    C(p, a) = C(p, p - a) are added and divided by scale as integers,
    and its log comes from lgamma. Factors of 1 are skipped: C(p, 0),
    C(p, p) and exponent 0 (C(p, p + 1) = 0 at d = N)."""
    p, exponents = modulus.p, {}
    for a, e in _factors(d, modulus):
        if e and 0 < a < p:
            exponents[min(a, p - a)] = exponents.get(min(a, p - a), 0) + e
    lg = math.lgamma
    return math.fsum(e / scale * (lg(p + 1) - lg(a + 1) - lg(p - a + 1))
                     for a, e in exponents.items())


MAX_COUNT_DIGITS = 10 ** 6  # longer counts take seconds to form and print


def count_universal(d: int, modulus: PrimePowerModulus) -> int:
    """Exact number of universal subsets of [0:p^M-1] with cardinality d.

    At d = N, where the whole group is the only set, the leading digit
    is p, and that place contributes C(p, p+1)^0 * C(p, p)^(p^(M-1)) = 1.
    A count of more than MAX_COUNT_DIGITS decimal digits is refused.
    """
    try:
        digits = _log_count(d, modulus) / math.log(10)
    except OverflowError:  # a binomial other than 1 to a power past 2^1024
        digits = math.inf
    if digits > MAX_COUNT_DIGITS:
        raise ValueError(f"the count at d={d} has about {digits:.4g} decimal "
                         f"digits, more than the limit of {MAX_COUNT_DIGITS}")
    return math.prod(math.comb(modulus.p, a) ** e for a, e in _factors(d, modulus))


def count_by_brute_force(
    d: int, modulus: PrimePowerModulus, budget: int = 1 << 24
) -> int:
    """Count by enumerating every d-subset and testing each one."""
    from .index_core import IndexSet  # numpy, loaded on first use
    from .universality import is_universal

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


def entropy_curve(
    p: int, m: int, resolution: int
) -> list[tuple[float, float]]:
    """Normalized log-counts log C(floor(alpha*N), N) / N at equally
    spaced alpha in [0, 1]. Both endpoints give exactly 0.

    Each log-count is _log_count, its exponents divided by N, so no
    count is formed. It differs from log(count_universal) / N by a few
    ulps at most. Past float range, floor(alpha*N) is taken exactly.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    modulus = PrimePowerModulus(p, m)
    n = modulus.n
    rows = []
    for i in range(resolution):
        alpha = i / (resolution - 1)
        d = math.floor(alpha * n) if n < 2 ** 1000 else i * n // (resolution - 1)
        rows.append((alpha, _log_count(min(n, d), modulus, n)))
    return rows


def bracelet_count(n: int, d: int) -> int:
    """Number of black-and-white bracelets of length n with d black beads.

    Burnside form: the cyclic (rotation) term is
    (1/2n) * sum over k | gcd(n, d) of phi(k) * C(n/k, d/k), and the
    reflection term is half a single binomial depending on the parities
    of n and d.
    """
    if n < 1:
        raise ValueError(f"ambient size must be >= 1, got {n}")
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    g = math.gcd(n, d) if d else n
    rot = sum(
        _totient(k) * math.comb(n // k, d // k)
        for k in range(1, g + 1)
        if g % k == 0
    )
    if n % 2 == 1:
        refl = math.comb((n - 1) // 2, d // 2)
    elif d % 2 == 0:
        refl = math.comb(n // 2, d // 2)
    else:
        refl = math.comb(n // 2 - 1, (d - 1) // 2)
    total = n * refl + rot
    assert total % (2 * n) == 0, "Burnside sum must divide evenly"
    return total // (2 * n)


@lru_cache(maxsize=None)
def _totient(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
