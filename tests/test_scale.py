"""Array implementation against the pure-Python reference at N = 2^16
and 3^10, where enumerating subsets is impossible.

Each example draws a seed and builds one set of a given kind: a random
half of Z_N, a random universal set, or a universal set with one
element moved inside its class mod p^(L-1), which breaks level L alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from unisamp import (
    IndexSet,
    InfeasibleSizeError,
    PrimePowerModulus,
    decompose,
    is_universal,
    is_universal_via_chi_star,
    is_universal_via_dispersion,
    maximal_universal,
    schur_valuation,
    universal_subset_of_size,
)

MODULI = [PrimePowerModulus(2, 16), PrimePowerModulus(3, 10)]
KINDS = ("half", "universal", "deep")
SEEDS = st.integers(0, 2 ** 32 - 1)


def universal_set(rng, p, m, d):
    """Random universal d-subset: every node of the congruence tree hands
    its count to its p children as evenly as possible, the larger shares
    going to a random choice of children."""
    counts = np.array([d])
    for _ in range(m):
        q, r = np.divmod(counts, p)
        extra = rng.random((counts.size, p)).argsort(axis=1) < r[:, None]
        counts = (q[:, None] + extra).T.reshape(-1)
    return np.flatnonzero(counts)


def move_within_class(rng, elems, p, m, level):
    """Move one element to a sibling class mod p^level (the same class
    mod p^(level-1)), which breaks level `level` alone. The source is
    the first class holding q = |I| // p^level elements, or, when q = 0,
    the first holding one element whose next sibling holds one too."""
    n, pl, sibling = p ** m, p ** level, p ** (level - 1)
    counts = np.bincount(elems % pl, minlength=pl)
    q = len(elems) // pl
    after = counts[(np.arange(pl) + sibling) % pl]
    source = int(np.argmax(counts == q if q else (counts == 1) & (after == 1)))
    target = (source + sibling * (int(rng.integers(1, p)) if q else 1)) % pl
    members = np.zeros(n, dtype=bool)
    members[elems] = True
    free = np.flatnonzero(~members[target::pl])
    members[rng.choice(elems[elems % pl == source])] = False
    members[target + pl * rng.choice(free)] = True
    return np.flatnonzero(members)


def build(kind, seed, modulus, level=1):
    """(elements, level of the planted witness or None); the level is
    capped at M - 1, the deepest one a move can break."""
    rng = np.random.default_rng(seed)
    p, m, n = modulus.p, modulus.m, modulus.n
    if kind == "half":
        return np.sort(rng.choice(n, n // 2, replace=False)), None
    base = universal_set(rng, p, m, int(rng.integers(n // 4 + 1, n // 2)))
    if kind == "universal":
        return base, None
    level = min(level, m - 1)
    return move_within_class(rng, base, p, m, level), level


def check_against_reference(kind, elems, level, modulus):
    s = IndexSet.of(modulus.n, elems)
    levels = reference.histogram(s.elements, modulus.p, modulus.m)
    verdict = is_universal(s, modulus)
    assert (verdict.is_universal, verdict.witness) == reference.verdict(levels)
    assert is_universal_via_chi_star(s, modulus) == verdict.is_universal
    assert is_universal_via_dispersion(s, modulus) == verdict.is_universal
    assert schur_valuation(s, modulus).valuation_numerator == reference.valuation(levels)
    if kind == "universal":
        assert verdict.is_universal
    if kind == "deep":
        k, a, b = verdict.witness
        assert k == level
        assert levels[k][b] - levels[k][a] >= 2


@given(modulus=st.sampled_from(MODULI), kind=st.sampled_from(KINDS), seed=SEEDS,
       level=st.integers(1, 16))
@settings(max_examples=12, deadline=None)
def test_verdict_witness_and_criteria(modulus, kind, seed, level):
    check_against_reference(kind, *build(kind, seed, modulus, level), modulus)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("modulus", MODULI, ids=["2^16", "3^10"])
@given(seed=SEEDS)
@settings(max_examples=2, deadline=None)
def test_witness_near_the_top(modulus, depth, seed):
    """Witnesses at levels M-1..M-3, around the first level with
    p^k >= |I|, where stored rows end."""
    check_against_reference("deep", *build("deep", seed, modulus, modulus.m - depth), modulus)


@given(modulus=st.sampled_from(MODULI), kind=st.sampled_from(KINDS), seed=SEEDS)
@settings(max_examples=6, deadline=None)
def test_maximal_pieces(modulus, kind, seed):
    elems, _ = build(kind, seed, modulus)
    s = IndexSet.of(modulus.n, elems)
    got = maximal_universal(s, modulus)
    want = reference.maximal(s.elements, modulus.p, modulus.m)
    assert [(k, piece.elements) for k, piece in got.decomposition.pieces] == want
    if kind == "universal":
        assert got.example == s
        assert decompose(s, modulus) == got.decomposition


@given(modulus=st.sampled_from(MODULI), kind=st.sampled_from(KINDS), seed=SEEDS,
       fraction=st.floats(0.0, 1.0))
@settings(max_examples=6, deadline=None)
def test_construct(modulus, kind, seed, fraction):
    elems, _ = build(kind, seed, modulus)
    s = IndexSet.of(modulus.n, elems)
    d = min(len(s), 1 + int(fraction * maximal_universal(s, modulus).size))
    want = reference.construct(s.elements, modulus.p, modulus.m, d)
    if want is None:
        with pytest.raises(InfeasibleSizeError):
            universal_subset_of_size(s, modulus, d)
    else:
        assert universal_subset_of_size(s, modulus, d).elements == want
