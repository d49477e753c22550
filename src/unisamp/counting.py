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
from functools import lru_cache
from itertools import combinations

from .base import ENUMERATION_BUDGET, PrimePowerModulus, Record


class BasePExpansion(Record):
    """Base-p digits of d, most significant first, padded to M places.

    suffixes[i] = sum of the place values strictly below digit i, so
    suffixes[0] drops the leading digit's contribution and suffixes[M-1]
    is 0.
    """

    d: int
    p: int
    m: int
    digits: tuple[int, ...]
    suffixes: tuple[int, ...]


def _split(d: int, p: int, count: int) -> list:
    """d's digits at base-p places 0..count-1, least significant first, the
    last taking d // p^(count-1) whole. By halving: one division by
    p^(count/2) costs far less than count/2 divisions by p."""
    if count == 1 or not d:
        return [d] + [0] * (count - 1)
    high, low = divmod(d, p ** (count // 2))
    return _split(low, p, count // 2) + _split(high, p, count - count // 2)


def _places(d: int, modulus: PrimePowerModulus):
    """(digit, suffix, place value) for each of the M base-p places of d,
    least significant first: the suffix is d mod the place value, and the
    leading digit is p at d = N. A place value is formed only under a
    nonzero digit (None elsewhere), from the last one formed."""
    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    p, suffix, place, at = modulus.p, 0, 1, 0  # place = p^at
    for j, digit in enumerate(_split(d, p, modulus.m)):
        if digit:
            place, at = place * p ** (j - at), j
        yield digit, suffix, place if digit else None
        suffix += digit * place


def base_p_expansion(d: int, modulus: PrimePowerModulus) -> BasePExpansion:
    places = list(_places(d, modulus))[::-1]
    return BasePExpansion(d, modulus.p, modulus.m, tuple(digit for digit, _, _ in places),
                          tuple(suffix for _, suffix, _ in places))


def _exponents(d: int, modulus: PrimePowerModulus) -> dict:
    """{a: e} such that the number of universal d-sets is the product of
    C(p, a) ** e: per digit a_i of d over suffix d_i, C(p, a_i + 1) ** d_i
    times C(p, a_i) ** (p^(M-1-i) - d_i). C(p, a) and C(p, p - a) share
    the key min(a, p - a), and factors of 1 are left out: C(p, 0),
    C(p, p), exponent 0 and C(p, p + 1) ** 0 at d = N."""
    p, exponents = modulus.p, {}
    for alpha, d_i, place in _places(d, modulus):
        for a, e in ((alpha + 1, d_i), (alpha, place and place - d_i)):
            if e and 0 < a < p:
                exponents[min(a, p - a)] = exponents.get(min(a, p - a), 0) + e
    return exponents


def _log_count(exponents: dict, p: int, scale: int = 1) -> float:
    """log of the product of C(p, a) ** e over `exponents`, / scale,
    without forming it or a binomial: each exponent is divided by scale
    as an integer, and the log of C(p, a) comes from lgamma."""
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
    exponents = _exponents(d, modulus)
    try:
        digits = _log_count(exponents, modulus.p) / math.log(10)
    except OverflowError:  # a binomial other than 1 to a power past 2^1024
        digits = math.inf
    if digits > MAX_COUNT_DIGITS:
        raise ValueError(f"the count at d={d} has about {digits:.4g} decimal "
                         f"digits, more than the limit of {MAX_COUNT_DIGITS}")
    return math.prod(math.comb(modulus.p, a) ** e for a, e in exponents.items())


def count_by_brute_force(d: int, modulus: PrimePowerModulus) -> int:
    """Count by enumerating every d-subset and testing each one; more
    than ENUMERATION_BUDGET subsets are refused."""
    from .index_core import IndexSet  # numpy, loaded on first use
    from .universality import is_universal

    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    total_subsets = math.comb(modulus.n, d)
    if total_subsets > ENUMERATION_BUDGET:
        raise ValueError(
            f"C({modulus.n},{d}) = {total_subsets} subsets exceeds the "
            f"enumeration budget of {ENUMERATION_BUDGET}"
        )
    n = modulus.n
    return sum(
        1
        for combo in combinations(range(n), d)
        if is_universal(IndexSet(n, combo), modulus).is_universal
    )


def entropy_curve(modulus: PrimePowerModulus, resolution: int) -> list[tuple[float, float]]:
    """Normalized log-counts log C(floor(alpha*N), N) / N, N = modulus.n,
    at equally spaced alpha in [0, 1]. Both endpoints give exactly 0.

    Each log-count is _log_count, its exponents divided by N, so no
    count is formed. It differs from log(count_universal) / N by a few
    ulps at most. Past float range, floor(alpha*N) is taken exactly.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n = modulus.n
    rows = []
    for i in range(resolution):
        alpha = i / (resolution - 1)
        d = math.floor(alpha * n) if n < 2 ** 1000 else i * n // (resolution - 1)
        rows.append((alpha, _log_count(_exponents(min(n, d), modulus), modulus.p, n)))
    return rows


def bracelet_count(n: int, d: int) -> int:
    """Number of black-and-white bracelets of length n with d black beads.

    Burnside form: the cyclic (rotation) term is
    (1/2n) * sum over k | gcd(n, d) of phi(k) * C(n/k, d/k), and the
    reflection term is half a single binomial depending on the parities
    of n and d. A count past MAX_COUNT_DIGITS digits is refused unformed.
    """
    if n < 1:
        raise ValueError(f"ambient size must be >= 1, got {n}")
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    digits = (_log_count({d: 1}, n) - math.log(2 * n)) / math.log(10)  # C(n, d) / 2n <= count
    if digits > MAX_COUNT_DIGITS:
        raise ValueError(f"the count at n={n}, d={d} has about {digits:.4g} decimal "
                         f"digits, more than the limit of {MAX_COUNT_DIGITS}")
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
