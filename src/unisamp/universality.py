"""Universality criteria and constructive algorithms.

A set I in Z_N (N = p^M) is universal when every square submatrix of the
DFT picked by I (rows) and any equally sized column set is invertible.
For prime powers this is equivalent to a purely combinatorial condition
on residue counts, which is what this module checks. It also builds
maximal universal subsets, minimal universal supersets, prescribed-size
universal subsets, and decompositions into elementary pieces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import InfeasibleSizeError, NotUniversalError, Record, same_group
from .index_core import (
    IndexSet,
    PrimePowerModulus,
    _blocks,
    residue_histogram,
)


class UniversalityVerdict(Record):
    is_universal: bool
    # witness: level k and residues (a, b) mod p^k with count(b) - count(a) >= 2
    witness: Optional[tuple[int, int, int]] = None

    def to_json(self) -> dict:
        out: dict = {"universal": self.is_universal}
        if self.witness is not None:
            k, a, b = self.witness
            out["witness"] = {"k": k, "a": a, "b": b}
        return out


class UniversalDecomposition(Record):
    """Ordered elementary pieces (k_r, piece_r) with |piece_r| = p^{k_r}."""

    pieces: tuple[tuple[int, IndexSet], ...]

    @property
    def k_sequence(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.pieces)

    def union(self, n: int) -> IndexSet:
        arrays = [np.empty(0, dtype=np.int64)] + [piece.array for _, piece in self.pieces]
        return IndexSet._own(n, np.concatenate(arrays))

    def to_json(self) -> dict:
        return {"pieces": [{"k": k, "indices": piece.array} for k, piece in self.pieces]}


class SchurValuation(Record):
    """p-adic valuations of the two products whose ratio decides the
    sufficient test: numerator over the set, denominator over the
    consecutive block of the same size."""

    valuation_numerator: int
    valuation_denominator: int

    @property
    def coprime(self) -> bool:
        return self.valuation_numerator == self.valuation_denominator


class MaximalResult(Record):
    size: int
    example: IndexSet
    decomposition: UniversalDecomposition


class MinimalResult(Record):
    size: int
    example: IndexSet


def is_universal(index_set: IndexSet, modulus: PrimePowerModulus) -> UniversalityVerdict:
    """Balanced-residue criterion: universal iff at every level k the
    class counts mod p^k differ by at most 1.

    The witness, when present, is the first (k, a, b) in ascending scan
    order with count(b) - count(a) >= 2: the first level whose spread is
    at least 2, the first class a two or more below that level's
    maximum, and the first class b at least two above a.
    """
    hist = residue_histogram(index_set, modulus)
    bad = hist.hi - hist.lo >= 2
    k = int(bad.argmax())
    if not bad[k]:
        return UniversalityVerdict(True)
    classes, runs = hist.runs(k)  # classes 0..gap-1 hold elements; class gap, if any, none
    gap = int(np.count_nonzero(classes == np.arange(len(classes))))
    row = np.append(runs[:gap], 0)
    a = int((row <= hist.hi[k] - 2).argmax())
    b = int(classes[(runs >= row[a] + 2).argmax()])
    return UniversalityVerdict(False, (k, a, b))


def is_universal_via_chi_star(index_set: IndexSet, modulus: PrimePowerModulus) -> bool:
    """Multiset criterion: level-k counts, as a multiset, must equal
    those of the consecutive block of the same cardinality.

    With q, r = divmod(|I|, p^k), the block's level-k multiset is r
    counts of q + 1 and p^k - r counts of q; a row summing to |I|
    matches it exactly when every count lies in [q, q + 1]. Past the
    stored levels it is read at level top + 1 alone, where q = 0 (see
    `ResidueHistogram`). So this, the dispersion criterion and
    `is_universal` are three readings of one residue pyramid, and
    `check`'s "criteria_agree" cannot be false; the rank oracle and
    `tests/reference.py` are the independent checks.
    """
    hist = residue_histogram(index_set, modulus)
    q = np.array([len(index_set) // modulus.p ** k for k in range(len(hist.hi))])
    return not np.count_nonzero((hist.lo < q) | (hist.hi > q + 1))


def is_universal_via_dispersion(index_set: IndexSet, modulus: PrimePowerModulus) -> bool:
    """Digit-reversal criterion: the digit-reversed image must be
    uniformly dispersed, i.e. its block-occupancy counts differ by at
    most 1 at every level.

    By dispersion(reverse(I))[k][reverse_k(a)] == chi_k(a; I), the
    level-k block counts of the reversed image are the level-k residue
    counts of I relabelled, so their spread is read off the residue
    pyramid and the reversed set is never built. That is the test of
    `is_universal`, so the two cannot disagree (see
    `is_universal_via_chi_star`).
    """
    return residue_histogram(index_set, modulus).spread_ok()


def schur_valuation(index_set: IndexSet, modulus: PrimePowerModulus) -> SchurValuation:
    """p-adic valuation of the product of pairwise differences, for the
    set and for the consecutive block of the same size.

    val_p(prod_{i<j}(m_j - m_i)) = sum over levels k >= 1 of
    sum_a C(count_k(a), 2): each pair congruent mod p^k contributes one
    factor of p per level it survives. The integers themselves are never
    formed; they overflow fast. A level's counts sum to |I|, so its term
    is (row . row - |I|) / 2, and row . row <= |I|^2 is exact in int64
    for |I| < 3 * 10^9.
    """
    if len(index_set) == 0:
        raise ValueError("valuation of an empty product is undefined here")
    hist = residue_histogram(index_set, modulus)
    d, p = len(index_set), modulus.p
    num = sum(int(np.dot(row, row)) - d for row in hist.rows[1:]) // 2
    # Above the stored levels, pairs are counted from the runs of the
    # sorted residues until the residues are distinct. Two distinct
    # elements differ by less than p^M, so no pair is congruent mod p^M.
    k, pairs = hist.top + 1, int(hist.hi[-1] > 1)
    while pairs and k < modulus.m:
        runs = hist.runs(k)[1]
        pairs = int((runs * (runs - 1)).sum()) // 2
        num, k = num + pairs, k + 1
    den, pk = 0, p
    for _ in range(modulus.m):
        q, r = divmod(d, pk)
        den += r * (q + 1) * q // 2 + (pk - r) * q * (q - 1) // 2
        pk *= p
    return SchurValuation(num, den)


def _full_level(arr: np.ndarray, p: int) -> int:
    """Largest k such that every class mod p^k meets the set (0 for the
    empty set). A full level has p^k <= |I|, and full levels are nested,
    so the occupancy of the classes at the largest such k is folded one
    level down at a time (classes a + j p^(k-1) merge) until all are hit."""
    k, pk = 0, 1
    while pk * p <= len(arr):  # so k <= M, as |I| <= N
        k, pk = k + 1, pk * p
    occupied = np.zeros(pk, dtype=bool)
    for _, _, residues in _blocks(arr, pk):
        occupied[residues] = True
    while k and not occupied.all():
        occupied, k = occupied.reshape(p, -1).any(0), k - 1
    return k


def _extract_piece(index_set: IndexSet, k: int, modulus: PrimePowerModulus) -> tuple[IndexSet, IndexSet]:
    """Pull out one elementary piece at level k and drop its shadow.

    The piece takes the smallest element of each class mod p^k. Every
    remaining element congruent to a chosen one mod p^{k+1} is removed
    along with it, which is what keeps later pieces separated. An element
    of residue r mod p^{k+1} lies in that shadow exactly when the piece's
    element of its class r mod p^k has residue r, so membership is one
    lookup in the piece's p^k residues, a table no larger than the input.
    """
    n, arr = modulus.n, index_set.array
    pk = modulus.p ** k
    if pk > len(arr):
        raise LookupError(f"some class mod {pk} is empty")
    # each class's least position in arr, then the element there: arr is
    # sorted, so that is its smallest; position len(arr) marks an empty class
    smallest = np.full(pk, len(arr), dtype=np.int64)
    for start, chunk, residues in _blocks(arr, pk):
        np.minimum.at(smallest, residues, np.arange(start, start + len(chunk)))
    if smallest[smallest.argmax()] == len(arr):
        raise LookupError(f"some class mod {pk} is empty")
    smallest = arr[smallest]  # in class order
    pk1 = pk * modulus.p
    key = smallest % pk1
    keep = np.empty(len(arr), dtype=bool)
    for start, _, r in _blocks(arr, pk1):
        np.not_equal(key[r % pk], r, out=keep[start:start + len(r)])
    smallest.sort()
    return IndexSet._trusted(n, smallest), IndexSet._trusted(n, arr[keep])


def _greedy(index_set: IndexSet, modulus: PrimePowerModulus, levels=None) -> UniversalDecomposition:
    """Elementary pieces at the given levels, in decreasing order (LookupError at one with an
    empty class), or, without levels, each at the deepest full level of what remains until
    nothing does. Once that level is 0 it stays 0, and a piece at level 0 is the smallest
    element left, its shadow the rest of its class mod p: so the level-0 pieces are the
    smallest elements of the remaining classes mod p, ascending, taken in one pass."""
    same_group(index_set=index_set, modulus=modulus)
    pieces, remaining = [], index_set
    while len(remaining) if levels is None else len(pieces) < len(levels):
        k = _full_level(remaining.array, modulus.p) if levels is None else levels[len(pieces)]
        if k == 0:
            smallest = remaining.array  # its classes mod p are distinct when p > its elements
            if len(smallest) and modulus.p <= smallest[-1]:
                first = np.unique(smallest % modulus.p, return_index=True)[1]
                smallest = np.sort(smallest[first])
            wanted = len(smallest) if levels is None else len(levels) - len(pieces)
            if wanted > len(smallest):
                raise LookupError("some class mod 1 is empty")
            pieces += [(0, IndexSet._trusted(modulus.n, smallest[i:i + 1])) for i in range(wanted)]
            break
        piece, remaining = _extract_piece(remaining, k, modulus)
        pieces.append((k, piece))
    return UniversalDecomposition(tuple(pieces))


def maximal_universal(index_set: IndexSet, modulus: PrimePowerModulus) -> MaximalResult:
    """Greedy extraction of a largest universal subset.

    Repeatedly finds the deepest level whose classes are all occupied,
    strips an elementary piece there, and discards everything sharing a
    class one level deeper with the piece. The union of the pieces is a
    maximum-cardinality universal subset. No residue pyramid is built:
    the working set is a few arrays the size of the input's.
    """
    decomposition = _greedy(index_set, modulus)
    example = decomposition.union(modulus.n)
    return MaximalResult(len(example), example, decomposition)


def _omega_rows(indicator: np.ndarray, modulus: PrimePowerModulus) -> np.ndarray:
    """Omega of each row of a (rows, N) boolean indicator array.

    A set is universal iff every node of the congruence tree splits its
    count c among its p children as floor(c/p) and ceil(c/p). The sizes
    of the universal subsets under a node form an interval [0, Omega]:
    from a split of q + 1s and qs, drop one child from q + 1 to q, or,
    when all are equal, one from q to q - 1. Taking q = m, the smallest
    child Omega, gives Omega = p*m + #{children with Omega > m}, and
    q = m + 1 is out of reach. The children of a class mod p^(k-1) are
    a + j*p^(k-1), so one reshape puts them on axis 1 at every level.
    """
    p, w = modulus.p, indicator
    for k in range(modulus.m, 0, -1):
        w = w.reshape(len(w), p, p ** (k - 1))
        lo = w.min(1)
        w = p * lo + (w > lo[:, None]).sum(1)
    return w[:, 0]


def universal_subset_of_size(
    index_set: IndexSet, modulus: PrimePowerModulus, d: int
) -> IndexSet:
    """Universal subset of cardinality exactly d, when one exists.

    A digit alpha of d at place k (base p) gives alpha pieces at level
    k, taken from the top level down as in maximal_universal. These
    levels never fail when d <= Omega, so Omega is computed only to name
    the cap of an infeasible d. Write t = alpha*p^k + r, alpha >= 1 the
    top digit and r < p^k: Omega(R) >= t iff every class mod p^k has
    alpha or more occupied children mod p^(k+1) and those with alpha + 1
    or more hold a universal r-subset of Z_(p^k). A piece at level k
    takes one element per class, and its shadow is exactly the child
    holding it, so every class loses one occupied child, which keeps the
    condition for t - p^k (for r when alpha = 1).
    """
    if not 1 <= d <= len(index_set):
        raise ValueError(f"target size {d} outside [1:{len(index_set)}]")
    p = modulus.p
    levels = [k for k in reversed(range(d.bit_length())) for _ in range(d // p ** k % p)]
    try:
        result = _greedy(index_set, modulus, levels).union(modulus.n)
    except LookupError as exc:
        raise InfeasibleSizeError(d, maximal_universal(index_set, modulus).size) from exc
    assert len(result) == d
    return result


def minimal_universal(index_set: IndexSet, modulus: PrimePowerModulus) -> MinimalResult:
    """Smallest universal superset, by complement duality: drop a
    maximal universal subset from the complement and take what is left."""
    comp = index_set.complement()
    omega = maximal_universal(comp, modulus)
    example = omega.example.complement()
    return MinimalResult(modulus.n - omega.size, example)


def decompose(index_set: IndexSet, modulus: PrimePowerModulus) -> UniversalDecomposition:
    """Split a universal set into separated elementary pieces.

    Fails (NotUniversalError with witness) on non-universal input; a
    universal set is consumed exactly by the greedy extraction.
    """
    verdict = is_universal(index_set, modulus)
    if not verdict.is_universal:
        raise NotUniversalError(verdict)
    result = maximal_universal(index_set, modulus)
    assert result.size == len(index_set)
    return result.decomposition
