"""DFT submatrices, numerical rank, brute-force universality, and
bandlimited interpolation.

Everything here is the analytic side of the story: invertibility of
row/column submatrices of the N-point DFT decided numerically, which
serves as the independent ground truth for the combinatorial criteria.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np
import scipy.linalg

from .index_core import IndexSet

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Signal:
    """Complex signal of length n."""

    n: int
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.values)}")

    @classmethod
    def of(cls, values) -> "Signal":
        vals = tuple(complex(v) for v in values)
        return cls(len(vals), vals)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.complex128)

    def spectrum(self) -> "Signal":
        return Signal.of(np.fft.fft(self.as_array()))

    def to_json(self) -> dict:
        return {"n": self.n, "values": [[v.real, v.imag] for v in self.values]}

    @classmethod
    def from_json(cls, obj: dict) -> "Signal":
        try:
            n = int(obj["n"])
            values = [complex(float(re), float(im)) for re, im in obj["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad signal JSON (need 'n' and 'values'): {exc}")
        sig = cls(n, tuple(values))
        return sig

    def dumps(self) -> str:
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class RankReport:
    numerical_rank: int
    smallest_singular_value: float
    largest_singular_value: float
    tolerance: float

    @property
    def full_rank(self) -> bool:
        return self.numerical_rank == self._order

    # order is implied by construction; stored privately to keep the
    # report self-contained
    _order: int = 0


class SingularSystemError(ValueError):
    """Linear system is numerically singular; carries the rank report."""

    def __init__(self, report: RankReport):
        self.report = report
        super().__init__(
            f"singular system: smallest singular value "
            f"{report.smallest_singular_value:.3e} below threshold "
            f"(tolerance {report.tolerance:g})"
        )


def dft_matrix(n: int) -> np.ndarray:
    """N x N matrix with entry (m, k) = exp(-2*pi*i*m*k/N).

    The exponent is reduced mod N before the complex exponential so
    phases stay exact multiples of 2*pi/N.
    """
    idx = np.arange(n)
    phase = np.outer(idx, idx) % n
    return np.exp(-2j * np.pi * phase / n)


@dataclass(frozen=True)
class DftSubmatrix:
    rows: IndexSet
    cols: IndexSet
    n: int

    @property
    def entries(self) -> np.ndarray:
        r = self.rows.array
        c = self.cols.array
        phase = np.outer(r, c) % self.n
        return np.exp(-2j * np.pi * phase / self.n)


def dft_submatrix(rows: IndexSet, cols: IndexSet, n: int) -> DftSubmatrix:
    if rows.n != n or cols.n != n:
        raise ValueError(
            f"row set (n={rows.n}) and column set (n={cols.n}) must both "
            f"live in Z_{n}"
        )
    return DftSubmatrix(rows, cols, n)


def _rank_report(matrix: np.ndarray, tolerance: float) -> RankReport:
    d = min(matrix.shape)
    sv = np.linalg.svd(matrix, compute_uv=False)
    smax = float(sv[0]) if d else 0.0
    smin = float(sv[-1]) if d else 0.0
    threshold = tolerance * max(matrix.shape) * smax
    rank = int(np.count_nonzero(sv > threshold))
    return RankReport(rank, smin, smax, tolerance, _order=d)


def is_invertible(
    rows: IndexSet, cols: IndexSet, n: int, tolerance: float = DEFAULT_TOLERANCE
) -> RankReport:
    """Numerical invertibility of the (rows, cols) DFT submatrix.

    Full rank means the smallest singular value clears
    tolerance * d * (largest singular value).
    """
    if len(rows) != len(cols):
        raise ValueError(
            f"need a square submatrix, got {len(rows)}x{len(cols)}"
        )
    if len(rows) == 0:
        return RankReport(0, 0.0, 0.0, tolerance, _order=0)
    return _rank_report(dft_submatrix(rows, cols, n).entries, tolerance)


def _rotate_mask(mask: int, t: int, n: int) -> int:
    full = (1 << n) - 1
    t %= n
    return ((mask >> t) | (mask << (n - t))) & full


def _reflect_mask(mask: int, n: int) -> int:
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << (-i % n)
    return out


def _canonical_mask(mask: int, n: int) -> int:
    best = mask
    refl = _reflect_mask(mask, n)
    for t in range(n):
        best = min(best, _rotate_mask(mask, t, n), _rotate_mask(refl, t, n))
    return best


@lru_cache(maxsize=None)
def _canonical_column_masks(n: int, d: int) -> tuple[int, ...]:
    """One column-set representative per rotation/reflection class.

    Translating the column set multiplies the submatrix by a unit
    diagonal on the right; negating it conjugates entrywise. Neither
    changes singular values, so one representative per class decides
    invertibility for the whole class.
    """
    reps = []
    for combo in combinations(range(n), d):
        mask = 0
        for e in combo:
            mask |= 1 << e
        if _canonical_mask(mask, n) == mask:
            reps.append(mask)
    return tuple(reps)


_ORACLE_CACHE: dict[tuple[int, int, float], bool] = {}


def brute_force_universal(
    index_set: IndexSet,
    n: int,
    tolerance: float = DEFAULT_TOLERANCE,
    budget: int = 1 << 24,
) -> bool:
    """True iff every square DFT submatrix with these rows is invertible.

    Checks each column set of the same size; column sets are reduced to
    rotation/reflection representatives (see _canonical_column_masks),
    and verdicts are cached per rotation/reflection class of the row set
    since translating or negating the rows also preserves singular
    values.
    """
    if index_set.n != n:
        raise ValueError(f"index set lives in Z_{index_set.n}, not Z_{n}")
    d = len(index_set)
    if d == 0:
        return True
    total = math.comb(n, d)
    if total > budget:
        raise ValueError(
            f"C({n},{d}) = {total} column sets exceeds the enumeration "
            f"budget of {budget}"
        )
    key = (n, _canonical_mask(index_set.mask(), n), tolerance)
    cached = _ORACLE_CACHE.get(key)
    if cached is not None:
        return cached
    rows = IndexSet.from_mask(n, key[1])
    f = dft_matrix(n)
    base = f[rows.array, :]
    reps = _canonical_column_masks(n, d)
    verdict = True
    chunk = 256
    for start in range(0, len(reps), chunk):
        block = reps[start : start + chunk]
        mats = np.stack(
            [
                base[:, [i for i in range(n) if mask >> i & 1]]
                for mask in block
            ]
        )
        sv = np.linalg.svd(mats, compute_uv=False)
        if np.any(sv[:, -1] <= tolerance * d * sv[:, 0]):
            verdict = False
            break
    _ORACLE_CACHE[key] = verdict
    return verdict


def interpolate(
    samples, sample_set: IndexSet, support: IndexSet, n: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Signal:
    """Unique signal with spectrum confined to `support` matching the
    given samples on `sample_set`.

    Solves (E_I^T F* E_J) c = samples by LU with partial pivoting plus
    one step of iterative refinement (clustered supports make these
    systems ill-conditioned), then synthesizes f = F* E_J c.
    """
    d = len(sample_set)
    if len(support) != d:
        raise ValueError(
            f"sample set size {d} must match support size {len(support)}"
        )
    b = np.asarray(list(samples), dtype=np.complex128)
    if b.shape != (d,):
        raise ValueError(f"expected {d} sample values, got shape {b.shape}")
    report = is_invertible(sample_set, support, n, tolerance)
    if not report.full_rank:
        raise SingularSystemError(report)
    r_full = dft_matrix(n).conj()[:, support.array]
    a = r_full[sample_set.array, :]
    lu, piv = scipy.linalg.lu_factor(a)
    c = scipy.linalg.lu_solve((lu, piv), b)
    c += scipy.linalg.lu_solve((lu, piv), b - a @ c)  # one refinement pass
    return Signal.of(r_full @ c)


def interpolating_basis(
    basis_matrix, sample_set: IndexSet, tolerance: float = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Re-express a basis of a d-dimensional signal space so that column
    j is 1 at the j-th sample index and 0 at the others: U = R (E_I^T R)^{-1}."""
    r = np.asarray(basis_matrix, dtype=np.complex128)
    rows = sample_set.array
    square = r[rows, :]
    report = _rank_report(square, tolerance)
    if not report.full_rank:
        raise SingularSystemError(report)
    return r @ np.linalg.inv(square)


def find_sampling_set(basis_matrix, tolerance: float = DEFAULT_TOLERANCE) -> IndexSet:
    """Pick d rows of an N x d rank-d matrix forming a well-conditioned
    square submatrix, by pivoted QR on the transpose."""
    r = np.asarray(basis_matrix, dtype=np.complex128)
    n, d = r.shape
    _, rq, piv = scipy.linalg.qr(r.T.conj(), pivoting=True, mode="economic")
    diag = np.abs(np.diag(rq))
    if diag.size < d or diag[-1] <= tolerance * d * diag[0]:
        raise ValueError(f"matrix rank below {d}; no sampling set exists")
    return IndexSet.of(n, (int(i) for i in piv[:d]))


@dataclass(frozen=True)
class ConditionReport:
    condition_number: float
    lower_bound: float


def condition_report(sample_set: IndexSet, support: IndexSet, n: int) -> ConditionReport:
    """Condition number of the sampling submatrix for a consecutive
    sample block, with the product-of-sines lower bound
    sqrt(d) * (prod over ordered pairs |2 sin(pi*(j1-j2)/N)|)^{-1/(2d)}."""
    d = len(sample_set)
    if sample_set.elements != tuple(range(d)):
        raise ValueError("the bound requires sample set [0:d-1]")
    if len(support) != d:
        raise ValueError(
            f"sample set size {d} must match support size {len(support)}"
        )
    sv = np.linalg.svd(dft_submatrix(sample_set, support, n).entries, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    log_p = 0.0
    for j1 in support.elements:
        for j2 in support.elements:
            if j1 != j2:
                log_p += math.log(abs(2.0 * math.sin(math.pi * (j1 - j2) / n)))
    bound = math.sqrt(d) * math.exp(-log_p / (2 * d)) if d > 1 else 1.0
    return ConditionReport(cond, bound)
