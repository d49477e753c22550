import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisamp import (
    IndexSet,
    InfeasibleSizeError,
    NotUniversalError,
    PrimePowerModulus,
    decompose,
    is_universal,
    is_universal_via_chi_star,
    is_universal_via_dispersion,
    maximal_universal,
    minimal_universal,
    residue_histogram,
    schur_valuation,
    universal_subset_of_size,
)
from unisamp import index_core
from unisamp.universality import _extract_piece, _omega_rows
from conftest import all_subsets, exact_pairwise_valuation
import reference
from reference import act, read_levels

M8 = PrimePowerModulus(2, 3)
M9 = PrimePowerModulus(3, 2)
M16 = PrimePowerModulus(2, 4)
M32 = PrimePowerModulus(2, 5)


def iset(n, elems):
    return IndexSet.of(n, elems)


class TestVerdicts:
    def test_universal_fixture(self):
        assert is_universal(iset(8, [0, 1, 3, 4, 6]), M8).is_universal

    def test_non_universal_fixture_with_witness(self):
        v = is_universal(iset(8, [0, 1, 4, 5]), M8)
        assert not v.is_universal
        assert v.witness == (2, 2, 0)
        assert v.to_json() == {
            "universal": False,
            "witness": {"k": 2, "a": 2, "b": 0},
        }

    def test_nine_fixture(self):
        assert not is_universal_via_chi_star(iset(9, [0, 1, 2, 3, 6]), M9)

    @pytest.mark.parametrize("modulus", [M8, M9, M16])
    def test_consecutive_blocks_universal(self, modulus):
        for d in range(modulus.n + 1):
            assert is_universal(iset(modulus.n, range(d)), modulus).is_universal

    def test_empty_set_universal(self):
        assert is_universal_via_chi_star(iset(8, []), M8)
        assert is_universal(iset(8, []), M8).is_universal

    def test_full_set_dispersion(self):
        assert is_universal_via_dispersion(IndexSet.full(8), M8)

    @pytest.mark.parametrize("modulus", [M8, M9])
    def test_witness_recomputes(self, modulus):
        """Any reported witness must name classes whose counts really
        differ by at least 2 at that level."""
        n = modulus.n
        for elems in all_subsets(n):
            v = is_universal(iset(n, elems), modulus)
            if v.is_universal:
                assert v.witness is None
                continue
            k, a, b = v.witness
            row = read_levels(residue_histogram(iset(n, elems), modulus))[k]
            assert row[b] - row[a] >= 2

    @pytest.mark.parametrize("modulus", [M8, M9])
    def test_criteria_agree_exhaustively(self, modulus):
        n = modulus.n
        for elems in all_subsets(n):
            s = iset(n, elems)
            a = is_universal(s, modulus).is_universal
            assert a == is_universal_via_chi_star(s, modulus)
            assert a == is_universal_via_dispersion(s, modulus)

    @given(st.data())
    @settings(max_examples=100)
    def test_bracelet_and_complement_closure(self, data):
        modulus = data.draw(st.sampled_from([M8, M9, M16]))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1))))
        verdict = is_universal(s, modulus).is_universal
        t = data.draw(st.integers(0, n - 1))
        reflect = data.draw(st.booleans())
        assert is_universal(act(s, t, reflect), modulus).is_universal == verdict
        assert is_universal(s.complement(), modulus).is_universal == verdict

    @given(st.data())
    @settings(max_examples=100)
    def test_universal_count_bounds(self, data):
        """Universal sets have near-uniform class counts at every level."""
        modulus = data.draw(st.sampled_from([M8, M9, M16]))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if not is_universal(s, modulus).is_universal:
            return
        d = len(s)
        hist = read_levels(residue_histogram(s, modulus))
        for k in range(modulus.m + 1):
            pk = modulus.p ** k
            for c in hist[k]:
                assert d // pk <= c <= -(-d // pk)


class TestSchurValuation:
    @pytest.mark.parametrize("modulus", [M8, M9, M16, PrimePowerModulus(3, 3)])
    def test_matches_exact_product(self, modulus):
        """Histogram formula vs direct factorization of the product of
        pairwise differences."""
        import random

        rng = random.Random(20240817)
        n = modulus.n
        for _ in range(200):
            d = rng.randint(1, min(n, 9))
            elems = rng.sample(range(n), d)
            sv = schur_valuation(iset(n, elems), modulus)
            assert sv.valuation_numerator == exact_pairwise_valuation(
                elems, modulus.p
            )
            assert sv.valuation_denominator == exact_pairwise_valuation(
                range(d), modulus.p
            )

    def test_block_is_coprime(self):
        sv = schur_valuation(iset(16, range(6)), M16)
        assert sv.coprime

    def test_worked_example_coprime(self):
        assert schur_valuation(iset(8, [0, 1, 3, 4, 6]), M8).coprime

    def test_prime_modulus_always_coprime(self):
        m7 = PrimePowerModulus(7, 1)
        for elems in all_subsets(7):
            if elems:
                assert schur_valuation(iset(7, elems), m7).coprime

    @pytest.mark.parametrize("modulus", [M8, M9])
    def test_coprime_implies_universal(self, modulus):
        n = modulus.n
        for elems in all_subsets(n):
            if not elems:
                continue
            if schur_valuation(iset(n, elems), modulus).coprime:
                assert is_universal(iset(n, elems), modulus).is_universal

    def test_numerator_at_least_denominator(self):
        # the ratio of the two products is an integer
        import random

        rng = random.Random(7)
        for _ in range(200):
            d = rng.randint(1, 10)
            elems = rng.sample(range(16), d)
            sv = schur_valuation(iset(16, elems), M16)
            assert sv.valuation_numerator >= sv.valuation_denominator

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            schur_valuation(iset(8, []), M8)


class TestMaximal:
    def test_worked_fixture(self):
        r = maximal_universal(
            iset(32, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 15]), M32
        )
        assert r.size == 7
        assert r.example.elements == (0, 1, 2, 3, 4, 6, 7)
        assert r.decomposition.k_sequence == (2, 1, 0)

    def test_nine_fixture(self):
        r = maximal_universal(iset(9, [0, 1, 2, 3, 6]), M9)
        assert r.size == 4
        assert r.example.elements in {(0, 1, 2, 3), (0, 1, 2, 6)}

    def test_empty_input(self):
        r = maximal_universal(iset(8, []), M8)
        assert r.size == 0 and len(r.example) == 0

    @pytest.mark.parametrize("modulus", [M8, M9])
    def test_universal_input_returned_whole(self, modulus):
        n = modulus.n
        for elems in all_subsets(n):
            s = iset(n, elems)
            if is_universal(s, modulus).is_universal:
                r = maximal_universal(s, modulus)
                assert r.example == s and r.size == len(s)

    @given(st.data())
    @settings(max_examples=150)
    def test_example_universal_and_contained(self, data):
        modulus = data.draw(st.sampled_from([M8, M9, M16, M32]))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        r = maximal_universal(s, modulus)
        assert set(r.example).issubset(set(s))
        assert is_universal(r.example, modulus).is_universal
        assert r.size == len(r.example)

    @given(st.data())
    @settings(max_examples=150)
    def test_size_bracketed_by_full_levels(self, data):
        """p^kbar <= size < p^(kbar+1), kbar the deepest level with no
        empty class; and size is at most the number of nonempty classes
        at the shallowest level with an empty class."""
        modulus = data.draw(st.sampled_from([M8, M9, M16, M32]))
        n, p = modulus.n, modulus.p
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        size = maximal_universal(s, modulus).size
        hist = read_levels(residue_histogram(s, modulus))
        full = [k for k in range(modulus.m + 1) if min(hist[k]) > 0]
        kbar = max(full)
        assert p ** kbar <= size < p ** (kbar + 1)
        deficient = [k for k in range(modulus.m + 1) if min(hist[k]) == 0]
        if deficient:
            klow = min(deficient)
            assert size <= sum(1 for c in hist[klow] if c > 0)

    @given(st.data())
    @settings(max_examples=150)
    def test_minimal_maximal_duality(self, data):
        modulus = data.draw(st.sampled_from([M8, M9, M16]))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1))))
        assert (
            minimal_universal(s, modulus).size
            + maximal_universal(s.complement(), modulus).size
            == n
        )

    @pytest.mark.parametrize("p,m", [(2, 12), (3, 7)])
    def test_two_scans_per_piece(self, p, m, monkeypatch):
        """Each piece above level 0 scans what remains twice: once for its
        table of least positions, which also gives its level, and once for
        its shadow. The search that ends at level 0 scans once more. No
        pass reads the occupancy alone."""
        import unisamp.universality as universality

        scans = []
        blocks = universality._blocks

        def counted(arr, modulus):
            scans.append(modulus)
            return blocks(arr, modulus)

        monkeypatch.setattr(universality, "_blocks", counted)
        result = maximal_universal(_half_set(p, m), PrimePowerModulus(p, m))
        levels = result.decomposition.k_sequence
        above = sum(1 for k in levels if k)
        assert above >= 3 and 0 in levels
        assert len(scans) <= 2 * above + 1


class TestFullLevel:
    """The level that `_extract_piece` finds, by folding its table of
    least positions down from the top level, equals the reference's scan
    of the classes at every level, on the non-empty sets the greedy
    searches."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, data):
        p, m = data.draw(st.sampled_from([(2, 3), (2, 8), (3, 2), (3, 5), (5, 2), (5, 3)]))
        n = p ** m
        kind = data.draw(st.sampled_from(["random", "universal", "full"]))
        elems = set(range(n)) if kind == "full" else data.draw(
            st.sets(st.integers(0, n - 1), min_size=1))
        if kind == "universal":  # the reference greedy's union is universal
            elems = {e for _, piece in reference.maximal(elems, p, m) for e in piece}
        k, piece, _ = _extract_piece(iset(n, elems), None, PrimePowerModulus(p, m))
        assert k == reference._largest_full_level(elems, p, m)
        assert (piece is None) == (k == 0)


def _plant_above_top(data, elems, p, m):
    """A universal set with one element x moved to x' = x mod p^top and
    = y mod p^(top+1), for another y = x mod p^top: levels up to top are
    unchanged and level top + 1 (p^(top+1) > |I|) holds a count of 2.
    None when no such pair exists."""
    universal = sorted(e for _, piece in reference.maximal(elems, p, m) for e in piece)
    top = 0
    while p ** (top + 1) <= len(universal):
        top += 1
    pk, pk1 = p ** top, p ** (top + 1)
    pairs = [(x, y) for x in universal for y in universal if x != y and (x - y) % pk == 0]
    if not pairs or top + 1 >= m:
        return None
    x, y = data.draw(st.sampled_from(pairs))
    free = [z for z in range(y % pk1, p ** m, pk1) if z not in universal]
    return (set(universal) - {x}) | {data.draw(st.sampled_from(free))}


class TestSparseLevel:
    """Past the stored levels the verdict, its witness, the criteria, the
    valuation and the greedy read sorted residues, not a table of p^k
    classes; they equal the reference's dense histogram and set greedy,
    also with a witness planted at level top + 1 and in blocks of 3."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, data):
        p, m = data.draw(st.sampled_from([(2, 12), (3, 7), (5, 5), (11, 3), (101, 2)]))
        n, modulus = p ** m, PrimePowerModulus(p, m)
        elems = data.draw(st.sets(st.integers(0, n - 1), max_size=40))
        planted = data.draw(st.booleans()) and _plant_above_top(data, elems, p, m)
        elems = planted or elems
        s = iset(n, elems)
        levels = reference.histogram(sorted(elems), p, m)
        universal, witness = reference.verdict(levels)
        with mock.patch.object(index_core, "_BLOCK", data.draw(st.sampled_from([3, 1 << 16]))):
            verdict = is_universal(s, modulus)
            assert (verdict.is_universal, verdict.witness) == (universal, witness)
            if planted:
                assert witness[0] == residue_histogram(s, modulus).top + 1 < m
            assert is_universal_via_chi_star(s, modulus) == universal
            assert is_universal_via_dispersion(s, modulus) == universal
            if elems:
                assert schur_valuation(s, modulus).valuation_numerator == (
                    reference.valuation(levels))
            pieces = maximal_universal(s, modulus).decomposition.pieces
            assert [(k, piece.elements) for k, piece in pieces] == reference.maximal(elems, p, m)
            size = sum(len(piece) for _, piece in pieces)
            if size:
                d = data.draw(st.integers(1, size))
                got = universal_subset_of_size(s, modulus, d).elements
                assert got == reference.construct(elems, p, m, d)


    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shadow_search_matches_reference(self, data):
        """Every class mod p met, so pieces start at level 1, where the
        shadow's p^2 classes outnumber 8 |I| bytes: membership is read
        from the piece's p residues, with no table of the p^2 classes."""
        p = data.draw(st.sampled_from([11, 101]))
        n, modulus = p ** 3, PrimePowerModulus(p, 3)
        lifts = data.draw(st.lists(st.integers(0, p * p - 1), min_size=p, max_size=p))
        extra = data.draw(st.sets(st.integers(0, n - 1), max_size=4 if p == 11 else 40))
        elems = {a + p * j for a, j in enumerate(lifts)} | extra
        s = iset(n, elems)
        pieces = maximal_universal(s, modulus).decomposition.pieces
        assert pieces[0][0] == 1 and p * p > s.array.nbytes
        assert [(k, piece.elements) for k, piece in pieces] == reference.maximal(elems, p, 3)
        d = data.draw(st.integers(1, sum(len(piece) for _, piece in pieces)))
        got = universal_subset_of_size(s, modulus, d).elements
        assert got == reference.construct(elems, p, 3, d)


def _one_piece_per_pass(s, modulus, levels=None):
    """The greedy extracting every piece, level 0 included, by its own
    pass over what remains: (k, elements) per piece; LookupError at a
    level with an empty class."""
    pieces, remaining = [], s
    while len(remaining) if levels is None else len(pieces) < len(levels):
        k = None if levels is None else levels[len(pieces)]
        k, piece, remaining = _extract_piece(remaining, k, modulus)
        if piece is None:  # the search stopped at level 0: extract there
            k, piece, remaining = _extract_piece(remaining, 0, modulus)
        pieces.append((k, piece.elements))
    return pieces


class TestLevelZero:
    """Once the deepest full level is 0 the pieces are the smallest
    element of each class mod p, taken in one pass: the same pieces, in
    the same order, as one pass per piece, with p below and above |I|."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_one_piece_per_pass(self, data):
        p, m = data.draw(st.sampled_from([(2, 6), (3, 4), (7, 2), (101, 2), (1000000007, 1)]))
        n, modulus = p ** m, PrimePowerModulus(p, m)
        elems = data.draw(st.sets(st.integers(0, min(n, 10 ** 6) - 1), max_size=150))
        if data.draw(st.booleans()):  # a few classes mod p, many elements each
            elems = {e - e % p + e % p % 3 for e in elems}
        s = iset(n, elems)
        pieces = maximal_universal(s, modulus).decomposition.pieces
        assert [(k, piece.elements) for k, piece in pieces] == _one_piece_per_pass(s, modulus)
        if not elems:
            return
        d = data.draw(st.integers(1, len(s)))
        levels = [k for k in reversed(range(d.bit_length())) for _ in range(d // p ** k % p)]
        try:
            want = sorted(e for _, piece in _one_piece_per_pass(s, modulus, levels) for e in piece)
        except LookupError:
            with pytest.raises(InfeasibleSizeError):
                universal_subset_of_size(s, modulus, d)
        else:
            assert list(universal_subset_of_size(s, modulus, d).elements) == want

    def test_large_prime_base_is_one_pass(self):
        """16,000 random indices at p = 10^9 + 7 are 16,000 pieces at
        level 0: one sort, not 16,000 passes (about 5 s that way)."""
        p = 1000000007
        modulus = PrimePowerModulus(p, 1)
        s = iset(p, np.unique(np.random.default_rng(17).integers(0, p, 16000)))
        start = time.perf_counter()
        result = maximal_universal(s, modulus)
        subset = universal_subset_of_size(s, modulus, len(s) // 2)
        assert time.perf_counter() - start < 1
        assert result.example == s and len(result.decomposition.pieces) == len(s)
        assert subset.elements == tuple(s.array[:len(s) // 2].tolist())


def _half_set(p, m):
    n = p ** m
    return iset(n, np.random.default_rng(n).choice(n, n // 2, replace=False))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p,m", [(2, 20), (3, 12)])
class TestWorkingSet:
    """On half sets at 2^20 and 3^12 the residue calls allocate a small
    multiple of the input array's bytes."""

    def test_maximal_folds_occupancy(self, p, m):
        """No residue pyramid: at most 2 x the array's bytes."""
        s, modulus = _half_set(p, m), PrimePowerModulus(p, m)
        assert _traced_peak(lambda: maximal_universal(s, modulus)) <= 2 * s.array.nbytes

    def test_valuation_reads_the_cached_pyramid(self, p, m):
        """Sum C(c, 2) from one dot product per level: no temporaries
        the size of the pyramid, under 0.5 x the array's bytes."""
        s, modulus = _half_set(p, m), PrimePowerModulus(p, m)
        residue_histogram(s, modulus)
        assert _traced_peak(lambda: schur_valuation(s, modulus)) < 0.5 * s.array.nbytes


@pytest.mark.parametrize("elements", [[0, 1, 3], [0, 2, 4]])
def test_pyramid_readers_stay_bounded(elements):
    """Every public reader of the pyramid, and the criteria and the
    valuation that read it, cost |I|, not N: at N = 2^62 their traced
    peak stays under 1 MB."""
    modulus = PrimePowerModulus(2, 62)
    s = iset(modulus.n, elements)

    def read_all():
        hist = residue_histogram(s, modulus)
        for name in dir(hist):
            if not name.startswith("_"):
                getattr(hist, name)
        hist.spread_ok()
        for k in range(modulus.m + 1):
            hist.runs(k)
        is_universal(s, modulus)
        is_universal_via_chi_star(s, modulus)
        is_universal_via_dispersion(s, modulus)
        schur_valuation(s, modulus)

    assert _traced_peak(read_all) < 1 << 20


def indicator_rows(n, subsets):
    rows = np.zeros((len(subsets), n), dtype=bool)
    for row, subset in zip(rows, subsets):
        row[list(subset)] = True
    return rows


def greedy_omegas(n, subsets, modulus):
    return [maximal_universal(iset(n, subset), modulus).size for subset in subsets]


class TestOmegaFold:
    """Omega from one bottom-up fold of the congruence tree equals the
    size of the greedy maximal universal subset."""

    @pytest.mark.parametrize("modulus", [M8, M9], ids=["8", "9"])
    def test_every_subset(self, modulus):
        n = modulus.n
        subsets = list(all_subsets(n))
        got = _omega_rows(indicator_rows(n, subsets), modulus)
        assert got.tolist() == greedy_omegas(n, subsets, modulus)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (2, 5)])
    def test_seeded_subsets(self, p, m):
        modulus, n = PrimePowerModulus(p, m), p ** m
        rng = np.random.default_rng(1000 * p + m)
        density = rng.random((2000, 1))
        rows = rng.random((2000, n)) < density
        subsets = [np.flatnonzero(row) for row in rows]
        assert _omega_rows(rows, modulus).tolist() == greedy_omegas(n, subsets, modulus)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_larger_moduli(self, data):
        p, m = data.draw(st.sampled_from([(3, 5), (2, 10), (5, 3)]))
        modulus, n = PrimePowerModulus(p, m), p ** m
        subsets = data.draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))
        got = _omega_rows(indicator_rows(n, subsets), modulus)
        assert got.tolist() == greedy_omegas(n, subsets, modulus)


class TestPrescribedSize:
    def test_nine_full_set_seven(self):
        got = universal_subset_of_size(IndexSet.full(9), M9, 7)
        assert len(got) == 7
        assert is_universal(got, M9).is_universal

    def test_matches_maximal_at_cap(self):
        s = iset(32, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 15])
        r = maximal_universal(s, M32)
        assert universal_subset_of_size(s, M32, r.size) == r.example

    @pytest.mark.parametrize("p,m", [(2, 3), (2, 4), (3, 2), (2, 6), (3, 4), (5, 3),
                                     (7, 3), (3, 6), (2, 10)])
    def test_construct_at_omega_is_maximal(self, p, m):
        """On a random set of each size, universal or not, maximal's piece
        levels are the base-p digit levels of its size Omega, most
        significant first, each repeated by its digit, and construct at
        size Omega returns maximal's example."""
        modulus = PrimePowerModulus(p, m)
        n = modulus.n
        rng = np.random.default_rng(n)
        for size in range(1, n + 1):
            s = IndexSet.of(n, rng.choice(n, size, replace=False))
            r = maximal_universal(s, modulus)
            digits = [r.size // p ** k % p for k in range(m, -1, -1)]
            levels = tuple(k for k, digit in zip(range(m, -1, -1), digits) for _ in range(digit))
            assert r.decomposition.k_sequence == levels, (n, sorted(s))
            assert universal_subset_of_size(s, modulus, r.size) == r.example

    def test_size_five_from_worked_set(self):
        s = iset(32, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 15])
        got = universal_subset_of_size(s, M32, 5)
        assert len(got) == 5
        assert is_universal(got, M32).is_universal

    def test_infeasible_names_cap(self):
        s = iset(8, [0, 2, 4, 6])
        with pytest.raises(InfeasibleSizeError) as exc:
            universal_subset_of_size(s, M8, 3)
        assert exc.value.maximal == maximal_universal(s, M8).size

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            universal_subset_of_size(iset(8, [0, 1]), M8, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_feasible_size_works(self, data):
        moduli = [M8, M9, M16, PrimePowerModulus(5, 2), PrimePowerModulus(3, 3),
                  PrimePowerModulus(7, 2)]
        modulus = data.draw(st.sampled_from(moduli))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        cap = maximal_universal(s, modulus).size
        for d in range(1, cap + 1):
            got = universal_subset_of_size(s, modulus, d)
            assert len(got) == d
            assert set(got).issubset(set(s))
            assert is_universal(got, modulus).is_universal
        for d in range(cap + 1, len(s) + 1):
            with pytest.raises(InfeasibleSizeError) as exc:
                universal_subset_of_size(s, modulus, d)
            assert exc.value.maximal == cap

    @pytest.mark.parametrize("p,m,d", [(2, 5, 13), (2, 5, 5), (3, 2, 7), (5, 2, 19)])
    def test_feasible_size_runs_only_its_pieces(self, p, m, d, monkeypatch):
        """A feasible d takes one extraction per unit of its base-p digit
        sum above level 0, its level-0 pieces in one pass, and no Omega
        greedy."""
        import unisamp.universality as universality

        calls = []
        extract = universality._extract_piece

        def counted(*args):
            calls.append(args[1])
            return extract(*args)

        monkeypatch.setattr(universality, "_extract_piece", counted)
        monkeypatch.setattr(universality, "maximal_universal", None)
        modulus = PrimePowerModulus(p, m)
        got = universal_subset_of_size(IndexSet.full(modulus.n), modulus, d)
        assert len(got) == d
        digit_sum, rest = 0, d // p
        while rest:
            rest, digit = divmod(rest, p)
            digit_sum += digit
        assert len(calls) == digit_sum and 0 not in calls

    @pytest.mark.parametrize("modulus", [M8, M9], ids=["8", "9"])
    def test_every_feasible_size_works_exhaustively(self, modulus):
        """Every nonempty subset at N = 8 and 9 and every d <= Omega:
        the prescribed-level greedy never hits its fallback."""
        n = modulus.n
        for subset in all_subsets(n):
            if not subset:
                continue
            s = iset(n, subset)
            cap = maximal_universal(s, modulus).size
            for d in range(1, cap + 1):
                got = universal_subset_of_size(s, modulus, d)
                assert len(got) == d and set(got) <= set(subset)
                assert is_universal(got, modulus).is_universal
            if cap < len(subset):
                with pytest.raises(InfeasibleSizeError):
                    universal_subset_of_size(s, modulus, cap + 1)


class TestMinimal:
    def test_universal_input_unchanged(self):
        s = iset(8, [0, 1, 3, 4, 6])
        r = minimal_universal(s, M8)
        assert r.size == 5 and r.example == s

    def test_full_set(self):
        r = minimal_universal(IndexSet.full(9), M9)
        assert r.size == 9

    def test_nine_fixture(self):
        s = iset(9, [0, 1, 2, 3, 6])
        comp_omega = maximal_universal(s.complement(), M9).size
        r = minimal_universal(s, M9)
        assert r.size == 9 - comp_omega

    @given(st.data())
    @settings(max_examples=150)
    def test_example_contains_input_and_is_universal(self, data):
        modulus = data.draw(st.sampled_from([M8, M9, M16, M32]))
        n = modulus.n
        s = iset(n, data.draw(st.sets(st.integers(0, n - 1))))
        r = minimal_universal(s, modulus)
        assert set(s).issubset(set(r.example))
        assert is_universal(r.example, modulus).is_universal
        assert r.size == len(r.example)


class TestDecompose:
    def test_non_universal_fails_with_witness(self):
        with pytest.raises(NotUniversalError) as exc:
            decompose(iset(8, [0, 1, 4, 5]), M8)
        assert exc.value.verdict.witness == (2, 2, 0)

    def test_elementary_set_single_piece(self):
        s = iset(8, [1, 2, 4, 7])  # one per class mod 4
        d = decompose(s, M8)
        assert d.k_sequence == (2,)
        assert d.pieces[0][1] == s

    def test_worked_example_structure(self):
        d = decompose(iset(8, [0, 1, 3, 4, 6]), M8)
        assert d.k_sequence == (2, 0)
        assert len(d.pieces[0][1]) == 4 and len(d.pieces[1][1]) == 1

    @pytest.mark.parametrize("modulus", [M8, M9])
    def test_invariants_for_every_universal_set(self, modulus):
        n, p = modulus.n, modulus.p
        for elems in all_subsets(n):
            if not elems:
                continue
            s = iset(n, elems)
            if not is_universal(s, modulus).is_universal:
                continue
            dec = decompose(s, modulus)
            ks = dec.k_sequence
            # levels nonincreasing, each repeated at most p-1 times,
            # matching the base-p digits of the cardinality
            assert list(ks) == sorted(ks, reverse=True)
            for k in set(ks):
                assert ks.count(k) <= p - 1
            assert sum(p ** k for k in ks) == len(s)
            seen: set = set()
            shadows: list = []
            for k, piece in dec.pieces:
                assert len(piece) == p ** k
                counts = read_levels(residue_histogram(piece, modulus))[k]
                assert set(counts) == {1}
                assert not (set(piece) & seen)
                for prev_k, prev_shadow in shadows:
                    assert not any(
                        e % (p ** (prev_k + 1)) in prev_shadow for e in piece
                    )
                seen |= set(piece)
                shadows.append(
                    (k, {e % (p ** (k + 1)) for e in piece})
                )
            assert seen == set(s)
