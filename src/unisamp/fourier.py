"""DFT submatrices, numerical rank, brute-force universality, and
bandlimited interpolation.

Everything here is the analytic side of the story: invertibility of
row/column submatrices of the N-point DFT decided numerically, which
serves as the independent ground truth for the combinatorial criteria.
Every rank test decides through `_ranks`, by the rule of base.TOLERANCE.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .base import (TOLERANCE, Record, SingularSystemError, enumeration_size, json_chunks,
                   json_int, same_group)
from .index_core import IndexSet, bracelet_canonical, bracelet_representatives


def complex_values(pairs) -> np.ndarray:
    """The complex128 array of a JSON list of [re, im] pairs of JSON
    numbers; strings, booleans and pairs of any other length are refused."""
    try:
        if ({*map(type, chain.from_iterable(pairs))} <= {int, float}
                and {*map(len, pairs)} <= {2}):
            return np.array(pairs, dtype=np.float64).view(np.complex128).ravel()
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError("values must be [re, im] pairs of JSON numbers")


class Signal:
    """Complex signal of length n, held as `values`, a read-only array."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values, _own: bool = False) -> None:
        # a new array, also from an array, unless `values` is a new
        # complex128 array that nothing else holds
        arr = np.array(values, dtype=np.complex128, copy=not _own)
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        if arr.shape != (n,):
            raise ValueError(f"expected {n} values, got {arr.size}")
        arr.setflags(write=False)
        self.n, self.values = n, arr

    @classmethod
    def of(cls, values) -> "Signal":
        return cls(len(values), values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.values, other.values)

    def spectrum(self) -> "Signal":
        return Signal.of(np.fft.fft(self.values))

    def to_json(self) -> dict:
        return {"n": self.n, "values": self.values.view(np.float64).reshape(-1, 2)}

    @classmethod
    def from_json(cls, obj: dict) -> "Signal":
        try:
            n = json_int(obj, "n")
            values = complex_values(obj["values"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad signal JSON (need 'n' and 'values'): {exc}")
        return cls(n, values)

    def dumps(self) -> str:
        return "".join(json_chunks(self.to_json()))


class RankReport(Record):
    """A square matrix's order, extreme singular values and rank by `_ranks`."""

    numerical_rank: int
    smallest_singular_value: float
    largest_singular_value: float
    order: int

    @property
    def full_rank(self) -> bool:
        return self.numerical_rank == self.order


def dft_matrix(n: int) -> np.ndarray:
    """N x N matrix with entry (m, k) = exp(-2*pi*i*m*k/N).

    The exponent is reduced mod N before the complex exponential so
    phases stay exact multiples of 2*pi/N.
    """
    return dft_submatrix(IndexSet.full(n), IndexSet.full(n))


def dft_submatrix(rows: IndexSet, cols: IndexSet) -> np.ndarray:
    """The rows x cols block of dft_matrix(N), N the sets' shared group."""
    n = same_group(rows=rows, cols=cols)
    # one complex buffer; the operation order of exp(-2j*pi*phase/n)
    phase = np.outer(rows.array, cols.array)
    phase %= n
    block = np.multiply(-2j * np.pi, phase)
    block /= n
    return np.exp(block, out=block)


def _ranks(sv: np.ndarray) -> np.ndarray:
    """Numerical ranks of d x d matrices, batched on leading axes, from their
    descending singular values: the number above the tolerance times d times
    the largest. Every rank test in the package decides by this rule."""
    return np.count_nonzero(sv > TOLERANCE * sv.shape[-1] * sv[..., :1], axis=-1)


def _rank_report(matrix: np.ndarray) -> RankReport:
    sv = np.linalg.svd(matrix, compute_uv=False)
    smin, smax = (float(sv[-1]), float(sv[0])) if len(sv) else (0.0, 0.0)
    return RankReport(int(_ranks(sv)), smin, smax, len(sv))


def is_invertible(rows: IndexSet, cols: IndexSet) -> RankReport:
    """Numerical invertibility of the (rows, cols) DFT submatrix.

    Full rank means the smallest singular value clears the tolerance
    times d times the largest (`_ranks`); an empty one is full rank.
    """
    if len(rows) != len(cols):
        raise ValueError(f"need a square submatrix, got {len(rows)}x{len(cols)}")
    return _rank_report(dft_submatrix(rows, cols))


# Column sets per batched SVD; it bounds the oracle's memory.
_SVD_CHUNK = 256

# Translating the column set multiplies the submatrix by a unit diagonal
# on the right; negating it conjugates entrywise. Neither changes
# singular values, so one column set per rotation/reflection class
# decides invertibility for the whole class.
_column_classes = lru_cache(maxsize=64)(bracelet_representatives)


@lru_cache(maxsize=1 << 14)
def _oracle_verdict(rows: IndexSet) -> bool:
    """brute_force_universal for a canonical row set of size 1..N/2,
    whose |I| x N row block then has at most 2 C(N, |I|) entries."""
    n, d = rows.n, len(rows)
    base = dft_submatrix(rows, IndexSet.full(n))
    reps = _column_classes(n, d)
    for start in range(0, len(reps), _SVD_CHUNK):
        block = base[:, reps[start : start + _SVD_CHUNK]]
        sv = np.linalg.svd(np.moveaxis(block, 1, 0), compute_uv=False)
        if np.any(_ranks(sv) < d):
            return False
    return True


def brute_force_universal(index_set: IndexSet, n: int) -> bool:
    """True iff every square DFT submatrix with these rows is invertible,
    each minor decided by the rule of is_invertible, _SVD_CHUNK at a time.

    I is universal iff its complement is: F^-1 = conj(F)/N and F is
    symmetric, so by Jacobi's identity for minors of the inverse
    det F[I, J] = 0 exactly when det F[N-I, N-J] = 0. So the smaller of
    I and N-I is tested (past N/2, the rule applies to the minors of
    N-I), with one column set of its size per rotation/reflection class
    (bracelet_representatives), and verdicts are cached per class of
    the tested rows (their bracelet_canonical form), since translating
    or negating the rows also preserves singular values. Refuses past the
    enumeration budget (base.enumeration_size) of C(n, |I|) = C(n, n - |I|)
    column sets, counted before classes are formed, which bounds both
    time and memory.
    N is passed as `n` as well as read from the set, which must share it:
    the benchmark's tracer reads that argument to count column sets.
    """
    same_group(index_set=index_set, n=n)
    d = len(index_set)
    enumeration_size(n, d, "column sets")
    if 2 * d > n:
        index_set = index_set.complement()
    if len(index_set) <= 1:
        return True  # no minor, or 1 x 1 minors, whose sigma_min = sigma_max
    return _oracle_verdict(bracelet_canonical(index_set).canonical)


def interpolate(samples, sample_set: IndexSet, support: IndexSet) -> Signal:
    """Unique signal on Z_N, the group both sets live in, with spectrum
    confined to `support` matching the given samples on `sample_set`;
    samples[k] is the value at the k-th smallest element of `sample_set`.

    Builds only the d x d system A = E_I^T F* E_J, the conjugate of the
    DFT submatrix whose singular values gate it as in is_invertible;
    solves A c = samples by LU with partial pivoting (numpy's gesv)
    plus one step of iterative refinement (clustered supports make
    these systems ill-conditioned); synthesizes f = F* E_J c as
    N * ifft of c placed on J. Memory is O(N + d^2).
    """
    d, n = len(sample_set), support.n
    if len(support) != d:
        raise ValueError(
            f"sample set size {d} must match support size {len(support)}"
        )
    b = np.asarray(samples, dtype=np.complex128)
    if b.shape != (d,):
        raise ValueError(f"expected {d} sample values, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("values must be finite")
    entries = dft_submatrix(sample_set, support)
    report = _rank_report(entries)
    if not report.full_rank:
        raise SingularSystemError(report)
    a = np.conj(entries, out=entries)  # the gate is done with `entries`
    c = np.linalg.solve(a, b)
    c += np.linalg.solve(a, b - a @ c)  # one refinement pass
    spectrum = np.zeros(n, dtype=np.complex128)
    spectrum[support.array] = c
    values = np.fft.ifft(spectrum)
    values *= n  # in place: the same products as n * ifft, without a copy
    return Signal(n, values, _own=True)


class ConditionReport(Record):
    condition_number: float
    lower_bound: float


def condition_report(support: IndexSet) -> ConditionReport:
    """Condition number of the sampling submatrix on the consecutive
    sample block [0:d-1], d = |support|, in the support's group Z_N, with the
    product-of-sines lower bound sqrt(d) * (prod over ordered pairs |2 sin(pi*(j1-j2)/N)|)^{-1/(2d)}."""
    n, d = support.n, len(support)
    if d == 0:
        raise ValueError("the condition number needs a nonempty support")
    report = _rank_report(dft_submatrix(IndexSet._trusted(n, np.arange(d)), support))
    smin, smax = report.smallest_singular_value, report.largest_singular_value
    cond = smax / smin if smin > 0 else math.inf
    j = support.array
    diff = np.subtract.outer(j, j)[~np.eye(d, dtype=bool)]
    log_p = float(np.log(np.abs(2.0 * np.sin(np.pi * diff / n))).sum())
    bound = math.sqrt(d) * math.exp(-log_p / (2 * d)) if d > 1 else 1.0
    return ConditionReport(cond, bound)
