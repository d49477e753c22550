"""Pure-Python reference for the residue criterion, the greedy
constructions, the random-subset experiment, the dihedral canonical
form, the oracle's column classes and the condition bound, a plain
rank oracle, the `json` parse of an index-set file, and two sumset
fixtures; with the test-only helpers that the package does not need: a
reader of every level of a residue histogram, digit reversal, the
dihedral action, the interpolating basis and the sampling-set pick by
pivoted QR.

These are the package's original algorithms over tuples, sets and
Python-int bitmasks: a histogram built by looping over every element at
every level, the pairwise witness scan, piece extraction with Python
sets, canonical forms taken over all 2n images of a set, and a double
loop over pairs. The rank oracle takes numpy's singular values of every
minor, with no classes and no complement. They are slow but plainly
correct, and the array versions are checked against them.
"""

import json
import math
from itertools import combinations

import numpy as np


def histogram(elements, p, m):
    """levels[k][a] = number of elements congruent to a mod p^k."""
    levels = []
    for k in range(m + 1):
        pk = p ** k
        row = [0] * pk
        for e in elements:
            row[e % pk] += 1
        levels.append(row)
    return levels


def read_levels(hist):
    """Every level of a package `ResidueHistogram` as tuples of counts,
    levels[k][a] for 0 <= k <= M: its `rows[k]` up to its top stored
    level, and above that its `runs(k)` placed among p^k zeros."""
    out = [tuple(row.tolist()) for row in hist.rows]
    for k in range(hist.top + 1, hist.modulus.m + 1):
        row, (classes, counts) = [0] * hist.modulus.p ** k, hist.runs(k)
        for a, c in zip(classes.tolist(), counts.tolist()):
            row[a] = c
        out.append(tuple(row))
    return tuple(out)


def digit_reverse(a, p, m):
    """Reverse the m base-p digits of a. Involution on [0:p^m-1]."""
    if not 0 <= a < p ** m:
        raise ValueError(f"{a} outside [0:{p ** m - 1}]")
    out = 0
    for _ in range(m):
        a, digit = divmod(a, p)
        out = out * p + digit
    return out


def act(index_set, t, reflect=False):
    """Dihedral action on a package `IndexSet`: optionally negate mod N,
    then subtract t mod N."""
    from unisamp.index_core import IndexSet

    arr = -index_set.array if reflect else index_set.array
    return IndexSet.of(index_set.n, (arr - t) % index_set.n)


def interpolating_basis(basis_matrix, sample_set):
    """Re-express a basis of a d-dimensional signal space so that column
    j is 1 at the j-th sample index and 0 at the others: U = R (E_I^T R)^{-1},
    gated by the singular-value rule of the package's `is_invertible`."""
    from unisamp.base import SingularSystemError
    from unisamp.fourier import _rank_report

    r = np.asarray(basis_matrix, dtype=np.complex128)
    square = r[sample_set.array, :]
    report = _rank_report(square)
    if not report.full_rank:
        raise SingularSystemError(report)
    return r @ np.linalg.inv(square)


def find_sampling_set(basis_matrix):
    """Pick d rows of an N x d rank-d matrix forming a well-conditioned
    square submatrix: the pivots of QR with column pivoting on the
    transpose, in O(N d^2). Each step takes the row of largest residual
    norm, the first on ties, and projects it out of the others; the rank
    falls short once that norm is TOLERANCE * d * the largest row norm or less."""
    from unisamp.base import TOLERANCE
    from unisamp.index_core import IndexSet

    r = np.array(basis_matrix, dtype=np.complex128)  # residuals, reduced in place
    n, d = r.shape
    floor = TOLERANCE * d * np.linalg.norm(r, axis=1).max(initial=0.0)
    rows = []
    for _ in range(min(n, d)):
        norms = np.linalg.norm(r, axis=1)
        p = int(np.argmax(norms))
        if norms[p] <= floor:
            break
        q = r[p] / norms[p]
        r -= np.outer(r @ q.conj(), q)
        r[p] = 0
        rows.append(p)
    if len(rows) < d:
        raise ValueError(f"matrix rank below {d}; no sampling set exists")
    return IndexSet.of(n, rows)


def verdict(levels):
    """(universal, witness): the first (k, a, b) in scan order with
    count(b) - count(a) >= 2, or None."""
    for k, row in enumerate(levels):
        if max(row) - min(row) <= 1:
            continue
        for a, ca in enumerate(row):
            for b, cb in enumerate(row):
                if cb - ca >= 2:
                    return False, (k, a, b)
    return True, None


def valuation(levels):
    """Pairs congruent mod p^k, summed over levels k >= 1."""
    return sum(c * (c - 1) // 2 for row in levels[1:] for c in row)


def _largest_full_level(elements, p, m):
    k = 0
    for k_try in range(1, m + 1):
        pk = p ** k_try
        if len({e % pk for e in elements}) < pk:
            break
        k = k_try
    return k


def _extract_piece(elements, k, p):
    """(piece, remaining), or None when some class mod p^k is empty."""
    pk = p ** k
    chosen = {}
    for e in sorted(elements):
        chosen.setdefault(e % pk, e)
    if len(chosen) < pk:
        return None
    shadow = {e % (pk * p) for e in chosen.values()}
    remaining = {e for e in elements if e % (pk * p) not in shadow}
    return tuple(sorted(chosen.values())), remaining


def maximal(elements, p, m):
    """Greedy pieces [(k, piece), ...] of a largest universal subset."""
    remaining = set(elements)
    pieces = []
    while remaining:
        k = _largest_full_level(remaining, p, m)
        piece, remaining = _extract_piece(remaining, k, p)
        pieces.append((k, piece))
    return pieces


def construct(elements, p, m, d):
    """Universal subset of size d from the base-p digits of d, or None
    when the input admits none."""
    if d > sum(len(piece) for _, piece in maximal(elements, p, m)):
        return None
    levels, rest, k = [], d, 0
    while rest:
        rest, digit = divmod(rest, p)
        levels.extend([k] * digit)
        k += 1
    remaining, collected = set(elements), []
    for k in reversed(levels):
        step = _extract_piece(remaining, k, p)
        if step is None:
            return None
        piece, remaining = step
        collected.extend(piece)
    return tuple(sorted(collected))


def random_maximal_successes(p, m, s, d, trials, seed):
    """Trials t < `trials` whose s-subset, drawn from the stream seeded
    with (seed, t), has a greedy maximal universal subset of size >= d."""
    successes = 0
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        subset = rng.permutation(p ** m)[:s].tolist()
        if sum(len(piece) for _, piece in maximal(subset, p, m)) >= d:
            successes += 1
    return successes


def bracelet_canonical(elements, n):
    """(least sorted image, number of distinct images) of a subset of
    Z_n over its 2n rotations and reflections."""
    images = set()
    for base in (tuple(elements), tuple(-e % n for e in elements)):
        for t in range(n):
            images.add(tuple(sorted((e - t) % n for e in base)))
    return min(images), len(images)


def rotate_mask(mask, t, n):
    full = (1 << n) - 1
    t %= n
    return ((mask >> t) | (mask << (n - t))) & full


def reflect_mask(mask, n):
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << (-i % n)
    return out


def canonical_mask(mask, n):
    """Least mask over the 2n rotations and reflections of Z_n."""
    best = mask
    refl = reflect_mask(mask, n)
    for t in range(n):
        best = min(best, rotate_mask(mask, t, n), rotate_mask(refl, t, n))
    return best


def canonical_column_masks(n, d):
    """Masks of the d-subsets of Z_n that are their class's least member,
    in lexicographic order of the subsets."""
    reps = []
    for combo in combinations(range(n), d):
        mask = 0
        for e in combo:
            mask |= 1 << e
        if canonical_mask(mask, n) == mask:
            reps.append(mask)
    return tuple(reps)


def sine_product_log(support, n):
    """log of prod over ordered pairs j1 != j2 of |2 sin(pi*(j1-j2)/n)|,
    summed term by term."""
    total = 0.0
    for j1 in support:
        for j2 in support:
            if j1 != j2:
                total += math.log(abs(2.0 * math.sin(math.pi * (j1 - j2) / n)))
    return total


def plain_oracle(elements, n, tolerance=1e-10):
    """True iff, for every one of the C(n, d) column sets, the d x d DFT
    minor with rows `elements` has its smallest singular value above
    tolerance * d * its largest (the package oracle's rule)."""
    rows, d = np.asarray(elements), len(elements)
    if d == 0:
        return True
    cols = np.array(list(combinations(range(n), d)))
    minors = np.exp(-2j * np.pi * (rows[None, :, None] * cols[:, None, :] % n) / n)
    sv = np.linalg.svd(minors, compute_uv=False)
    return bool(np.all(sv[:, -1] > tolerance * d * sv[:, 0]))


def parse_index_file(path, n):
    """`-I @path` as the CLI parsed it before its array reader: the
    file's text through `json.load`, one Python int per index, then
    `IndexSet.from_json`."""
    from unisamp.index_core import IndexSet

    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")
    iset = IndexSet.from_json(obj)
    if iset.n != n:
        raise ValueError(f"inputs live in different groups: file in Z_{iset.n}, N in Z_{n}")
    return iset


# Two contrasting sumset fixtures: in the first, neither the direct nor
# the fallback bound is tight for the partition-based bound family; the
# second is widely quoted with a six-element sumset, but direct
# computation over Z_16 gives four elements. Both values are recorded;
# tests assert the computed one.
KNESER_FIXTURES = (
    {
        "n": 8,
        "x": (0, 1),
        "y": (0, 4),
        "computed_sumset": (0, 1, 4, 5),
    },
    {
        "n": 16,
        "x": (0, 2),
        "y": (0, 2, 4),
        "computed_sumset": (0, 2, 4, 6),
        "quoted_sumset": (0, 2, 4, 6, 8, 10),
        "discrepancy": True,
    },
)
