import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisamp import (
    BraceletClass,
    IndexSet,
    PrimePowerModulus,
    bracelet_canonical,
    bracelet_count,
    chi_star,
    dispersion,
    residue_histogram,
)
from unisamp.base import _iroot, is_prime
import reference
from reference import act, digit_reverse, read_levels
from conftest import all_subsets, dihedral_orbit_count


MODULI = [
    PrimePowerModulus(2, 3),
    PrimePowerModulus(3, 2),
    PrimePowerModulus(2, 4),
    PrimePowerModulus(5, 1),
    PrimePowerModulus(3, 3),
]


def subset_strategy(n):
    return st.sets(st.integers(0, n - 1), max_size=n)


class TestPrimePowerModulus:
    def test_from_n_factors(self):
        assert PrimePowerModulus.from_n(27) == PrimePowerModulus(3, 3)
        assert PrimePowerModulus.from_n(13) == PrimePowerModulus(13, 1)
        assert PrimePowerModulus.from_n(32).n == 32

    def test_from_n_rejects_composite(self):
        with pytest.raises(ValueError, match="not a prime power"):
            PrimePowerModulus.from_n(12)

    def test_rejects_nonprime_base(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(4, 2)

    @pytest.mark.parametrize("n,p,m", [
        (2 ** 61 - 1, 2 ** 61 - 1, 1),
        ((10 ** 9 + 7) ** 2, 10 ** 9 + 7, 2),
        (3 ** 40, 3, 40),
        (2 ** 100, 2, 100),
        (2 ** 2000, 2, 2000),
    ])
    def test_from_n_large(self, n, p, m):
        """Large prime bases and exponents, past float range for 2^2000,
        factor at once."""
        start = time.perf_counter()
        assert PrimePowerModulus.from_n(n) == PrimePowerModulus(p, m)
        assert time.perf_counter() - start < 1.0

    def test_from_n_rejects_power_of_composite(self):
        with pytest.raises(ValueError, match="not a prime power"):
            PrimePowerModulus.from_n(6 ** 5)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == [
            n for n in range(-3, 10 ** 5) if trial(n)]

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the primes up to 23
        318665857834031151167461,  # strong pseudoprime to the primes up to 37
    ])
    def test_is_prime_refuses_pseudoprimes(self, n):
        assert not is_prime(n)

    def test_prime_past_certified_bound_refused(self):
        with pytest.raises(ValueError, match="proved only below"):
            PrimePowerModulus.from_n(2 ** 89 - 1)

    @pytest.mark.parametrize("n", [2 ** 4000 + 1, 2 ** 4000 + 3, 3 ** 2524 + 2],
                             ids=["2^4000+1", "2^4000+3", "3^2524+2"])
    def test_large_non_power_refused_at_once(self, n):
        """A 4,001-bit N with no exact root: the exponent scan takes no
        Newton run per exponent, and no Miller-Rabin past the certified
        bound (2^4000 + 1 took 0.4 s)."""
        start = time.perf_counter()
        with pytest.raises(ValueError):
            PrimePowerModulus.from_n(n)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("p,m", [(2, 4000), (3, 2500), (5, 1000), (2 ** 61 - 1, 50),
                                     (10 ** 9 + 7, 3), (3, 1)])
    def test_large_powers_factor_at_once(self, p, m):
        start = time.perf_counter()
        assert PrimePowerModulus.from_n(p ** m) == PrimePowerModulus(p, m)
        assert time.perf_counter() - start < 0.05

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2 ** 64), st.integers(1, 200), st.integers(1, 2 ** 5000))
    def test_iroot_is_the_floor_root(self, r, m, n):
        """At exact powers, one either side of them, and any n."""
        for x in (r ** m - 1, r ** m, r ** m + 1, n):
            root = _iroot(max(x, 1), m)
            assert root ** m <= max(x, 1) < (root + 1) ** m


class TestIndexSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSet(8, (0, 0, 1))
        with pytest.raises(ValueError):
            IndexSet(8, (0, 9))
        with pytest.raises(ValueError):
            IndexSet.of(4, [1, 1])

    def test_json_round_trip(self):
        s = IndexSet.of(8, [4, 0, 6])
        assert s.elements == (0, 4, 6)
        again = IndexSet.from_json(json.loads(s.dumps()))
        assert again == s

    def test_bad_json(self):
        with pytest.raises(ValueError, match="indices"):
            IndexSet.from_json({"n": 8})

    def test_rejects_non_integers(self):
        for bad in ([0.5], [2.0], ["3"], [True]):
            with pytest.raises(ValueError, match="indices must be integers"):
                IndexSet.of(8, bad)
        with pytest.raises(ValueError, match="indices must be integers"):
            IndexSet(8, (0.5, 1.5))

    def test_accepts_integer_inputs(self):
        import numpy as np

        assert len(IndexSet.of(8, [])) == 0
        assert len(IndexSet.of(8, np.asarray([]))) == 0
        for ints in ([3, 1], (1, 3), range(1, 4, 2), np.array([3, 1], dtype=np.int32),
                     np.array([3, 1], dtype=np.uint8), [np.int64(3), 1]):
            assert IndexSet.of(8, ints).elements == (1, 3)

    def test_refuses_integers_past_int64_by_name(self):
        """numpy makes such a list float64, uint64 or object, and casts a
        uint64 array round to negatives; each is refused by its first
        element past int64, which is named with the limit it passes."""
        import numpy as np

        for bad, element in (([1, 2 ** 63], 2 ** 63), ([2 ** 63], 2 ** 63),
                             ([3, 2 ** 70, 1.5], 2 ** 70), ((0, -2 ** 63 - 1), -2 ** 63 - 1),
                             (np.array([1, 2 ** 63 + 5], dtype=np.uint64), 2 ** 63 + 5)):
            limit = 2 ** 63 - 1 if element > 0 else -2 ** 63
            with pytest.raises(ValueError, match=f"^element {element} is past the int64 "
                                                 f"limit {limit}$"):
                IndexSet.of(2 ** 80, bad)

    def test_rejects_booleans_next_to_integers(self):
        """numpy casts [True, 2] to int64 [1, 2]; the bool is refused."""
        import numpy as np

        for bad in ([True, 2], (2, False), [np.True_, 3], [3, True, 2 ** 40]):
            with pytest.raises(ValueError, match="indices must be integers"):
                IndexSet.of(8, bad)
        with pytest.raises(ValueError, match="indices must be integers"):
            IndexSet.from_json({"n": 8, "indices": [True, 3]})

    def test_complement_and_mask(self):
        s = IndexSet.of(6, [0, 2, 5])
        assert s.complement().elements == (1, 3, 4)


class TestResidueHistogram:
    @given(st.data())
    @settings(max_examples=150)
    def test_level_recurrence(self, data):
        """A class count at level k-1 is the sum over its p children."""
        modulus = data.draw(st.sampled_from(MODULI))
        s = IndexSet.of(modulus.n, data.draw(subset_strategy(modulus.n)))
        levels = read_levels(residue_histogram(s, modulus))
        p = modulus.p
        for k in range(1, modulus.m + 1):
            parent = levels[k - 1]
            child = levels[k]
            pk1 = p ** (k - 1)
            for a in range(pk1):
                assert parent[a] == sum(child[a + j * pk1] for j in range(p))

    @given(st.data())
    @settings(max_examples=100)
    def test_cardinality_per_level(self, data):
        modulus = data.draw(st.sampled_from(MODULI))
        s = IndexSet.of(modulus.n, data.draw(subset_strategy(modulus.n)))
        for row in read_levels(residue_histogram(s, modulus)):
            assert sum(row) == len(s)

    def test_worked_example(self):
        m = PrimePowerModulus(2, 3)
        levels = read_levels(residue_histogram(IndexSet.of(8, [0, 1, 3, 4, 6]), m))
        assert levels[1] == (3, 2)
        assert levels[2] == (2, 1, 1, 1)
        assert levels[3] == (1, 1, 0, 1, 1, 0, 1, 0)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            residue_histogram(IndexSet.of(8, [0]), PrimePowerModulus(3, 2))

    @pytest.mark.parametrize("p,m", [(2, 10), (3, 6), (5, 4), (11, 3), (101, 2)])
    def test_stored_levels(self, p, m):
        """`rows` holds levels 0..top, top the last level with p^top <= |I|
        (at most M), each equal to the reference counts; so the stored
        entries total fewer than p/(p-1) per element."""
        modulus, rng = PrimePowerModulus(p, m), np.random.default_rng(p)
        sizes = {1, p - 1, p, p * p - 1, p * p, modulus.n, *rng.integers(1, modulus.n, 20)}
        for size in sorted(sizes - {0}):
            elements = rng.choice(modulus.n, size, replace=False).tolist()
            hist = residue_histogram(IndexSet.of(modulus.n, elements), modulus)
            top = max(k for k in range(m + 1) if p ** k <= size)
            assert hist.top == top == len(hist.rows) - 1
            assert [row.tolist() for row in hist.rows] == reference.histogram(elements, p, top)
            assert sum(map(len, hist.rows)) * (p - 1) < p * size


class TestChiStar:
    @given(st.data())
    @settings(max_examples=100)
    def test_matches_consecutive_block(self, data):
        modulus = data.draw(st.sampled_from(MODULI))
        d = data.draw(st.integers(0, modulus.n))
        block = IndexSet.of(modulus.n, range(d))
        assert read_levels(chi_star(d, modulus)) == read_levels(residue_histogram(block, modulus))


class TestDigitReverse:
    @given(st.data())
    @settings(max_examples=200)
    def test_involution_in_range(self, data):
        modulus = data.draw(st.sampled_from(MODULI))
        a = data.draw(st.integers(0, modulus.n - 1))
        r = digit_reverse(a, modulus.p, modulus.m)
        assert 0 <= r < modulus.n
        assert digit_reverse(r, modulus.p, modulus.m) == a

    def test_known_values(self):
        assert digit_reverse(1, 2, 3) == 4
        assert digit_reverse(6, 2, 3) == 3  # 110 -> 011
        assert digit_reverse(5, 3, 2) == 7  # 12 -> 21 base 3


class TestDispersion:
    @given(st.data())
    @settings(max_examples=100)
    def test_reversal_identity(self, data):
        """Block counts of the digit-reversed set are the residue counts,
        with the class label digit-reversed at that level."""
        modulus = data.draw(st.sampled_from(MODULI))
        s = IndexSet.of(modulus.n, data.draw(subset_strategy(modulus.n)))
        p, m = modulus.p, modulus.m
        rev = IndexSet.of(modulus.n, (digit_reverse(e, p, m) for e in s))
        disp = read_levels(dispersion(rev, modulus))
        hist = read_levels(residue_histogram(s, modulus))
        for k in range(m + 1):
            for a in range(p ** k):
                assert disp[k][digit_reverse(a, p, k)] == hist[k][a]


class TestAct:
    def test_translation_fixture(self):
        assert act(IndexSet.of(12, [0, 2, 5, 7]), 1).elements == (1, 4, 6, 11)

    def test_reflection_fixture(self):
        got = act(IndexSet.of(12, [0, 2, 5, 7]), 0, reflect=True)
        assert got.elements == (0, 5, 7, 10)

    @given(st.data())
    @settings(max_examples=100)
    def test_translation_composes(self, data):
        n = data.draw(st.integers(2, 20))
        s = IndexSet.of(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        t1 = data.draw(st.integers(0, n - 1))
        t2 = data.draw(st.integers(0, n - 1))
        assert act(act(s, t1), t2) == act(s, (t1 + t2) % n)

    @given(st.data())
    @settings(max_examples=100)
    def test_reflection_is_involution(self, data):
        n = data.draw(st.integers(2, 20))
        s = IndexSet.of(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        assert act(act(s, 0, reflect=True), 0, reflect=True) == s


class TestBracelets:
    @given(st.data())
    @settings(max_examples=60)
    def test_canonical_is_orbit_invariant(self, data):
        n = data.draw(st.integers(2, 14))
        s = IndexSet.of(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        t = data.draw(st.integers(0, n - 1))
        reflect = data.draw(st.booleans())
        assert bracelet_canonical(act(s, t, reflect)) == bracelet_canonical(s)

    @given(st.data())
    @settings(max_examples=60)
    def test_orbit_size_divides_group_order(self, data):
        n = data.draw(st.integers(2, 14))
        s = IndexSet.of(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        assert (2 * n) % bracelet_canonical(s).orbit_size == 0

    def test_canonical_equals_reference(self):
        """Canonical form and orbit size against the images of every
        subset with n <= 12, the empty and full sets included."""
        for n in range(1, 13):
            for elements in all_subsets(n):
                got = bracelet_canonical(IndexSet(n, elements))
                want = reference.bracelet_canonical(elements, n)
                assert (got.canonical.elements, got.orbit_size) == want, (n, elements)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_canonical_at_large_n(self, data):
        """Past where all images can be listed: the canonical form is an
        image of the set, the same for every image, and the orbit size
        divides 2n."""
        n = data.draw(st.integers(2, 1 << 16))
        s = IndexSet.of(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=60)))
        t = data.draw(st.integers(0, n - 1))
        reflect = data.draw(st.booleans())
        cls = bracelet_canonical(s)
        assert bracelet_canonical(act(s, t, reflect)) == cls
        assert (2 * n) % cls.orbit_size == 0
        assert any(
            act(s, (-e if flip else e) % n, flip) == cls.canonical
            for e in s.elements for flip in (False, True)
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_canonical_past_int64(self, data):
        """At n past int64 the gaps and their sums are Python ints. Each of
        the 2|I| images holding 0 comes from one group element (the one
        taking an element, either way round, to 0), so the form is the
        least of them and the orbit is 2n over how often it recurs; a form
        that leaves int64 is refused by its first element past it."""
        n = data.draw(st.integers(2 ** 63 + 1, 2 ** 66))
        elements = data.draw(st.sets(st.one_of(st.integers(0, 40), st.integers(0, 2 ** 63 - 1)),
                                     min_size=1, max_size=8))
        images = [tuple(sorted(sign * (x - e) % n for x in elements))
                  for e in elements for sign in (1, -1)]
        best = min(images)
        past = [x for x in best if x >= 2 ** 63]
        if past:
            with pytest.raises(ValueError, match=f"^element {past[0]} is past the int64 limit"):
                bracelet_canonical(IndexSet.of(n, elements))
        else:
            cls = bracelet_canonical(IndexSet.of(n, elements))
            assert (cls.canonical.elements, cls.orbit_size) == (best, 2 * n // images.count(best))

    def test_canonical_orbit_of_symmetric_sets(self):
        """Rotation and reflection symmetry shrink the orbit: a block is
        its own mirror image, an arithmetic progression also repeats
        under translation."""
        assert bracelet_canonical(IndexSet.of(200000, range(2001))) == BraceletClass(
            IndexSet.of(200000, range(2001)), 200000
        )
        assert bracelet_canonical(IndexSet.of(12, [1, 4, 7, 10])).orbit_size == 3
        assert bracelet_canonical(IndexSet.of(12, [0, 1, 3])).orbit_size == 24

    def test_count_fixtures(self):
        assert bracelet_count(4, 2) == 2
        assert bracelet_count(6, 2) == 3
        assert bracelet_count(4, 1) == 1
        assert bracelet_count(5, 0) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_matches_orbit_enumeration(self, n):
        for d in range(n + 1):
            assert bracelet_count(n, d) == dihedral_orbit_count(n, d)

    def test_count_matches_scan_over_every_k(self):
        """The divisors and totients listed from the factored gcd give
        the Burnside sum over every k <= gcd(n, d), each phi(k) counted
        from k gcds: every d at n <= 64, and gcds with many divisors."""
        cases = [(n, d) for n in range(1, 65) for d in range(n + 1)]
        for n, d in cases + [(720, 360), (5040, 2520), (1024, 512), (729, 243), (2310, 1155)]:
            g = math.gcd(n, d)
            rot = sum(sum(math.gcd(j, k) == 1 for j in range(1, k + 1)) * math.comb(n // k, d // k)
                      for k in range(1, g + 1) if g % k == 0)
            refl = math.comb(n // 2 - d % 2 * (1 - n % 2), d // 2)
            assert bracelet_count(n, d) == (rot + n * refl) // (2 * n), (n, d)

    @pytest.mark.parametrize("d", [0, 10 ** 12])
    def test_count_at_empty_or_full_is_instant(self, d):
        """d = 0 and d = n give one bracelet before any divisor of
        gcd(n, d) = n is looked for: under a second at n = 10^12."""
        start = time.perf_counter()
        assert bracelet_count(10 ** 12, d) == 1
        assert time.perf_counter() - start < 1

    def test_counts_sum_to_total_classes(self):
        # summing over d must count every bracelet of length 12 exactly once
        total = sum(bracelet_count(12, d) for d in range(13))
        canon = {bracelet_canonical(IndexSet.of(12, s)).canonical.elements
                 for s in _all_subsets_12()}
        assert total == len(canon)


def _all_subsets_12():
    for mask in range(1 << 12):
        yield tuple(i for i in range(12) if mask >> i & 1)
