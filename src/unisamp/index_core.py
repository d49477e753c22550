"""Residue arithmetic on index sets in Z_N for N = p^M.

Provides the domain types shared by the rest of the package (index sets,
per-level residue histograms) together with the consecutive block's
histogram, block-dispersion counts, and the canonical forms and
representatives of dihedral orbits, from least rotations of gap
sequences. `PrimePowerModulus` (from `base`) and `bracelet_count` (from
`counting`) are defined in numpy-free modules and re-exported here.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import warnings
from typing import Iterable

import numpy as np

from .base import PrimePowerModulus, Record, file_text, json_chunks, json_int, same_group
from .counting import bracelet_count  # noqa: F401


_INT64 = range(-2 ** 63, 2 ** 63)


def _past_int64(value: int) -> ValueError:
    """The refusal of an integer index that int64 cannot hold."""
    return ValueError(f"element {value} is past the int64 limit {_INT64[-1 if value > 0 else 0]}")


def _int_array(values) -> np.ndarray:
    """A new one-dimensional int64 array of the given integers. Values of
    any other type (0.5, 2.0, "3", True) are refused, not truncated, and
    so is an integer past int64, by name."""
    if not isinstance(values, np.ndarray):
        values = values if isinstance(values, (list, tuple)) else list(values)
        if not {bool, np.bool_}.isdisjoint(map(type, values)):  # else cast to 0 or 1
            raise ValueError("indices must be integers, got bool values")
    arr = np.array(values)  # a new array, also from an array
    if arr.dtype.kind != "i":
        # an int past int64 makes the array uint64, float64 or object
        for v in values.tolist() if isinstance(values, np.ndarray) else values:
            if isinstance(v, (int, np.integer)) and int(v) not in _INT64:
                raise _past_int64(int(v))
        if arr.size and arr.dtype.kind not in "uO":
            raise ValueError(f"indices must be integers, got {arr.dtype} values")
        try:
            arr = np.array(values, dtype=np.int64)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"indices must be integers: {exc}") from None
    if arr.ndim != 1:
        raise ValueError("indices must form a flat list")
    return arr.astype(np.int64, copy=False)


class IndexSet:
    """A set of distinct residues in [0:N-1], held as `array`, a sorted
    read-only int64 array. `elements` is the same set as a tuple of
    Python ints, built from the array on each use."""

    __slots__ = ("n", "array", "_histogram")

    def __init__(self, n: int, elements: Iterable[int]) -> None:
        """Elements must already be strictly increasing; `of` sorts."""
        self._adopt(n, _int_array(elements))

    def _adopt(self, n: int, arr: np.ndarray, sort: bool = False) -> "IndexSet":
        """Check `arr` and take it as the set. With `sort`, an array that
        the one order scan finds not strictly increasing is first sorted
        in place, then scanned for repeats."""
        if n < 1:
            raise ValueError(f"ambient size must be >= 1, got {n}")
        unordered = len(arr) and np.count_nonzero(arr[1:] <= arr[:-1])
        if unordered and sort:
            arr.sort()
            unordered = np.count_nonzero(arr[1:] == arr[:-1])
        if len(arr) and (arr[0] < 0 or arr[-1] >= n or unordered):
            outside = arr[(arr < 0) | (arr >= n)]
            if len(outside):
                raise ValueError(f"element {outside[0]} outside [0:{n - 1}]")
            raise ValueError("elements must be strictly increasing")
        arr.setflags(write=False)
        self.n, self.array, self._histogram = n, arr, None
        return self

    @classmethod
    def _trusted(cls, n: int, arr: np.ndarray) -> "IndexSet":
        """Wrap an array known to be sorted, distinct and in range."""
        self = cls.__new__(cls)
        arr.setflags(write=False)
        self.n, self.array, self._histogram = n, arr, None
        return self

    @classmethod
    def _own(cls, n: int, arr: np.ndarray) -> "IndexSet":
        """Wrap a new int64 array that nothing else holds: sorted in
        place unless it is sorted (as ranges and files from `dumps` are),
        then checked, never copied."""
        return cls.__new__(cls)._adopt(n, arr, sort=True)

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "IndexSet":
        """Build from any iterable; sorts and rejects duplicates."""
        return cls._own(n, _int_array(elements))

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, np.arange(n))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.n, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"IndexSet(n={self.n}, elements={self.elements})"

    def complement(self) -> "IndexSet":
        if self.n > np.iinfo(np.intp).max:
            raise ValueError(f"the complement in Z_{self.n} has {self.n - len(self)} "
                             "elements, more than an array can hold")
        outside = np.ones(self.n, dtype=bool)
        outside[self.array] = False
        return IndexSet._trusted(self.n, np.flatnonzero(outside))

    def to_json(self) -> dict:
        return {"n": self.n, "indices": self.array}

    @classmethod
    def from_json(cls, obj: dict) -> "IndexSet":
        try:
            n = json_int(obj, "n")
            indices = _int_array(obj["indices"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad index set JSON (need 'n' and 'indices'): {exc}")
        return cls._own(n, indices)

    def dumps(self) -> str:
        return "".join(json_chunks(self.to_json()))

    @classmethod
    def loads(cls, raw) -> "IndexSet":
        """The inverse of `dumps`, from a file's bytes or a regular file
        open in binary mode: a plain file goes to an int64 array with no
        Python int per index, any other through `from_json(json.loads)`."""
        plain = _plain_index_set(raw)
        if plain is None:
            text = file_text(raw if isinstance(raw, bytes) else raw.read())
            return cls.from_json(json.loads(text))
        return cls._own(*plain)


_INDICES_OPEN = re.compile(rb'"indices"[ \t\n\r]*:[ \t\n\r]*\[')
# digits and the comma map to themselves, every other byte to "x"
_DIGITS_COMMA = bytes(c if c in b"0123456789," else ord("x") for c in range(256))
# bytes of array text per read; 256 KiB windows read up to 1 MB more max
# RSS on a 3^12 `check` (malloc's mmap threshold)
_WINDOW = 1 << 16


def _plain_index_set(source):
    """(n, int64 indices in file order) of a JSON object whose only
    "indices" holds canonical non-negative integers below min(n, 10^18),
    n an integer; None for any other input. The rest, the array emptied,
    must be an object with that empty "indices" at top level and no
    backslash (an escape could spell another key). `source`, the file's
    bytes or a regular file open in binary mode, is read in windows: the
    array text twice (its commas counted into one array's length, then
    parsed into slices of it, cut at commas), the rest once.
    A window reaches `np.fromstring` only if, whitespace removed, it is
    digit runs joined by commas, none empty (a blank item parses as 0);
    a leading zero, or a run the parse stopped at (as at a space inside
    a number), then shows as more digits than the values have."""
    if isinstance(source, bytes):
        size, read = len(source), lambda lo, hi: source[lo:hi]
    else:
        fd = source.fileno()
        size, read = os.fstat(fd).st_size, lambda lo, hi: os.pread(fd, hi - lo, lo)
    width = _WINDOW  # the head doubles until it holds the opening or the whole file
    while not (opened := _INDICES_OPEN.search(head := read(0, width))) and width < size:
        width *= 2
    start, end, commas = opened.end() if opened else size, -1, 0
    for lo in range(start, size, _WINDOW):
        window = read(lo, lo + _WINDOW)
        close = window.find(b"]")
        commas += window.count(b",", 0, close if close >= 0 else None)
        if close >= 0:
            end = lo + close
            break
    if end < 0:
        return None
    rest = head[:start] + read(end, size)
    if b"\\" in rest or rest.count(b'"indices"') != 1:
        return None
    try:
        obj = json.loads(file_text(rest))
    except (ValueError, RecursionError):
        return None
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int or obj.get("indices") != []:
        return None
    arr, filled, carry = np.empty(commas + 1, dtype=np.int64), 0, b""
    with warnings.catch_warnings():  # numpy 2.4 raises where older ones warn and stop
        warnings.simplefilter("ignore", DeprecationWarning)
        for lo in range(start, max(end, start + 1), _WINDOW):
            window = carry + read(lo, min(lo + _WINDOW, end))
            cut = window.rfind(b",") if lo + _WINDOW < end else len(window)
            if cut < 0:  # no comma yet: the item goes on in the next read
                carry = window
                continue
            window, carry = window[:cut], window[cut + 1:]
            body = window.translate(_DIGITS_COMMA, b" \t\n\r")
            # ",," as one uint16 at even or odd offsets: 6x faster than `in`
            pairs = (np.frombuffer(body, "<u2", (len(body) - s) // 2, s) for s in (0, 1))
            if (not body or b"x" in body or body[:1] == b"," or body[-1:] == b","
                    or any(np.any(pair == 0x2C2C) for pair in pairs)):
                return None
            try:
                values = np.fromstring(window, dtype=np.int64, sep=",")
            except ValueError:
                return None
            top = int(values.max(initial=0))
            digits = len(body) - len(values) + 1 - sum(  # minus digits past the first
                np.count_nonzero(values >= 10 ** k) for k in range(1, len(str(top))))
            if top >= min(n, 10 ** 18) or digits != len(values):
                return None
            arr[filled:filled + len(values)] = values
            filled += len(values)
    return n, arr


_BLOCK = 1 << 12  # entries per block of a residue temporary: 32 KiB of int64


def _blocks(arr: np.ndarray, modulus: int):
    """(start, residues mod `modulus`) for the blocks of _BLOCK entries of
    arr; the residues share one buffer, valid until the next block."""
    buf = np.empty(min(len(arr), _BLOCK), dtype=np.int64)
    for start in range(0, len(arr), _BLOCK):
        chunk = arr[start:start + _BLOCK]
        yield start, np.remainder(chunk, modulus, out=buf[:len(chunk)])


def _sorted_residues(arr: np.ndarray, modulus: int) -> np.ndarray:
    """A sorted array's residues mod `modulus`, ascending: the array
    itself when the modulus exceeds its elements."""
    if not len(arr) or modulus > arr[-1]:
        return arr
    residues = arr % modulus
    residues.sort()
    return residues


class ResidueHistogram:
    """Per-level residue multiplicities of an index set.

    Level k counts the elements congruent to a mod p^k, for each class a
    and 0 <= k <= M. Level 0 is the single total; the weight of every
    node in the congruence tree equals the sum of its children's weights.

    Levels 0..top, top the last level with p^top <= |I| (at most M),
    are stored as `rows`, one int64 array per level: `rows[k]` is level
    k. `runs(k)` reads any level by its occupied classes, from `rows` or,
    above top, from the sorted residues of `elements`, so no reader
    allocates a level past top. `lo[k]`, `hi[k]` are level k's extreme
    counts, for the stored levels and, when top < M, for level top + 1.
    That level has more classes than elements, so its lo is 0; its hi is
    the longest run of its sorted residues. It is balanced exactly when
    the residues are distinct, and then every higher level is balanced
    too.
    """

    __slots__ = ("modulus", "rows", "top", "lo", "hi", "elements")

    def __init__(self, modulus, rows, elements=None) -> None:
        self.modulus, self.rows, self.top, self.elements = modulus, rows, len(rows) - 1, elements
        lo, hi = [row.min() for row in rows], [row.max() for row in rows]
        if self.top < modulus.m:
            r = _sorted_residues(elements, modulus.p ** (self.top + 1))
            repeats = r is not elements and np.count_nonzero(r[1:] == r[:-1])
            lo.append(0)
            hi.append(self.runs(self.top + 1)[1].max() if repeats else min(len(r), 1))
        self.lo, self.hi = np.array(lo), np.array(hi)

    def runs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The classes mod p^k that hold elements, ascending, and their
        counts: level k without its empty classes. Above the stored
        levels, they are the runs of the sorted residues."""
        if k <= self.top:
            classes = np.flatnonzero(self.rows[k])
            return classes, self.rows[k][classes]
        r = _sorted_residues(self.elements, self.modulus.p ** k)
        first = np.flatnonzero(np.diff(r, prepend=-1))
        return r[first], np.diff(first, append=len(r))


def residue_histogram(index_set: IndexSet, modulus: PrimePowerModulus) -> ResidueHistogram:
    """Count elements of the set in each congruence class mod p^k, all k <= M.

    The residues mod p^top are counted in blocks at the top stored level;
    each level below folds away the top digit of the residue (classes
    a + j p^(k-1) merge). No allocation follows p or N. The result is
    kept on the index set, so the criteria, the witness and the
    valuation of one set share one pyramid.
    """
    same_group(index_set=index_set, modulus=modulus)
    if index_set._histogram is not None:  # N = p^M fixes the modulus
        return index_set._histogram
    p, arr = modulus.p, index_set.array
    top, pk = 0, 1
    while pk * p <= len(arr) and top < modulus.m:
        top, pk = top + 1, pk * p
    rows = [np.zeros(pk, dtype=np.int64)]
    for _, residues in _blocks(arr, pk):
        np.add.at(rows[0], residues, 1)
    for _ in range(top):
        rows.insert(0, rows[0].reshape(p, -1).sum(0))
    index_set._histogram = ResidueHistogram(modulus, rows, arr)
    return index_set._histogram


def chi_star(d: int, modulus: PrimePowerModulus) -> ResidueHistogram:
    """Residue histogram of the consecutive block [0:d-1]: class a mod
    p^k holds floor((d-1-a)/p^k) + 1 of its elements, clamped at zero.
    """
    if not 0 <= d <= modulus.n:
        raise ValueError(f"cardinality {d} outside [0:{modulus.n}]")
    return residue_histogram(IndexSet._trusted(modulus.n, np.arange(d)), modulus)


def dispersion(index_set: IndexSet, modulus: PrimePowerModulus) -> ResidueHistogram:
    """Block-occupancy counts: level k bins [0:N-1] into p^k blocks of
    length p^(M-k) and counts elements per block.

    Level k of dispersion(reverse(I)), at the class a with its k base-p
    digits reversed, counts the elements of I congruent to a mod p^k
    (the reference `digit_reverse` in `tests/reference.py` checks it).
    """
    same_group(index_set=index_set, modulus=modulus)
    p, m, arr = modulus.p, modulus.m, index_set.array
    rows = [np.bincount(arr // p ** (m - k), minlength=p ** k) for k in range(m + 1)]
    return ResidueHistogram(modulus, rows)


class BraceletClass(Record):
    """Dihedral orbit of an index set, named by its least representative."""

    canonical: IndexSet
    orbit_size: int


def _least_rotation(seq: list) -> list:
    """Least rotation of seq, by Duval's Lyndon factorization of seq + seq."""
    d, s = len(seq), seq + seq
    i = start = 0
    while i < d:
        start, j, k = i, i + 1, i
        while j < 2 * d and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + d]


def bracelet_canonical(index_set: IndexSet) -> BraceletClass:
    """Least sorted image of the set under the 2N rotations and
    reflections, and the number of distinct images, in O(|I|).

    An image containing 0 lists the prefix sums of the cyclic gaps
    e_(i+1) - e_i from one element; reflection reverses the gaps. So the
    least image comes from the least rotation of the gaps or of their
    reversal, and the N * period / |I| translates double unless the two
    agree. The gaps and their sums are Python ints, so any N works while
    the least image's elements fit int64."""
    n, elems = index_set.n, index_set.array.tolist()
    if not elems:
        return BraceletClass(index_set, 1)
    gaps = [b - a for a, b in zip(elems, elems[1:] + [elems[0] + n])]
    fwd, back, d = _least_rotation(gaps), _least_rotation(gaps[::-1]), len(gaps)
    best = min(fwd, back)
    period = next(q for q in range(1, d + 1) if d % q == 0 and best[q:] == best[:-q])
    return BraceletClass(IndexSet.of(n, itertools.accumulate(best[:-1], initial=0)),
                         n * period // d * (1 if fwd == back else 2))


def bracelet_representatives(n: int, d: int) -> np.ndarray:
    """One d-subset of Z_n per rotation/reflection class, for
    0 <= d <= n/2, as the rows of a read-only int64 array. Each row is
    its class's bracelet_canonical form: gap sequences are generated as
    necklaces (Fredricksen-Kessler-Maiorana) and kept when no greater
    than the least rotation of their reversal."""
    if d <= 1:
        out = np.zeros((1, d), dtype=np.int64)
    else:
        found, a = [], [0] * d

        def extend(t: int, period: int, rest: int) -> None:
            """a[:t] is a prenecklace of this period; rest = n - sum(a[:t])."""
            ref = a[t - period]
            if t == d - 1:  # the last part is forced
                a[t] = rest
                if (rest > ref or rest == ref and d % period == 0) and (
                        a <= _least_rotation(a[::-1])):
                    found.append([0] + a[:-1])
                return
            for part in range(ref, rest - (d - 1 - t) * a[0] + 1):  # parts >= a[0]
                a[t] = part
                extend(t + 1, period if part == ref else t + 1, rest - part)

        for first in range(1, n // d + 1):
            a[0] = first
            extend(1, 1, n - first)
        out = np.cumsum(found, axis=1)  # rows are prefix sums of the gaps
    out.setflags(write=False)
    return out
