"""What the integer-only layer needs, with no numpy: the prime-power
modulus, the one check that inputs share Z_N, the fixed rank tolerance
and enumeration budget, the exceptions of a failed check (the CLI's exit
1), JSON input's decoding and integer checks, and the JSON writer. `index_core`
re-exports the modulus; `universality` the modulus, `NotUniversalError` and
`InfeasibleSizeError`; `fourier` only `SingularSystemError`.
"""

from __future__ import annotations

import io
import json
import math

JSON_CHUNK = 1 << 14  # array entries per piece of `json_chunks`
ENUMERATION_BUDGET = 1 << 24  # most C(N, d) that `count --brute` and the oracle enumerate
TOLERANCE = 1e-10  # the relative singular-value threshold of every rank test
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERTIFIED = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to PRIME_BASES, which decides every n below
    PRIME_CERTIFIED (Sorenson and Webster, Math. Comp. 86 (2017)). A
    composite is always refused; a larger n that passes every base
    raises ValueError, as its primality is not proved."""
    if n < 2 or any(n % a == 0 for a in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    if n >= PRIME_CERTIFIED:
        raise ValueError(f"primality of {n} is proved only below {PRIME_CERTIFIED}")
    return True


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 1, by integer Newton steps from just above
    a float estimate of the root's top 50 bits: a few steps converge, and
    no float limits n."""
    k = max(0, n.bit_length() // m - 50)  # root bits below the estimate
    x = int(2 ** (math.log2(n >> k * m) / m) * (1 + 2 ** -40) + 1) << k
    while (y := ((m - 1) * x + n // x ** (m - 1)) // m) < x:
        x = y
    return x


def same_group(**inputs) -> int:
    """The N of the one group Z_N of every input, N itself or an object with it
    as `.n`; inputs in different groups raise ValueError naming each group."""
    groups = {name: getattr(value, "n", value) for name, value in inputs.items()}
    if len(set(groups.values())) > 1:
        raise ValueError("inputs live in different groups: " + ", ".join(
            f"{name} in Z_{n}" for name, n in groups.items()))
    return next(iter(groups.values()))


def enumeration_size(n: int, d: int, noun: str) -> int:
    """C(n, d), or ValueError calling the d-subsets `noun` past ENUMERATION_BUDGET."""
    if (total := math.comb(n, d)) > ENUMERATION_BUDGET:
        raise ValueError(f"C({n},{d}) = {total} {noun} exceeds the "
                         f"enumeration budget of {ENUMERATION_BUDGET}")
    return total


def file_text(raw: bytes) -> str:
    """A file's bytes decoded as `open(path).read()` decodes them: the
    locale's encoding, strictly, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw)).read()


def json_chunks(obj):
    """The text of `json.dumps(obj)` in pieces, where obj is JSON data
    with string keys in which numpy arrays stand for their `tolist()`. An
    array is rendered JSON_CHUNK entries at a time, so no Python object
    per entry outlives its chunk."""
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ", " * (i > 0) + json.dumps(key) + ": "
            yield from json_chunks(value)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, value in enumerate(obj):
            yield ", " * (i > 0)
            yield from json_chunks(value)
        yield "]"
    elif getattr(obj, "ndim", 0):  # a numpy array of one axis or more
        yield "["
        for start in range(0, len(obj), JSON_CHUNK):
            text = json.dumps(obj[start:start + JSON_CHUNK].tolist())
            yield ", " * (start > 0) + text[1:-1]
        yield "]"
    else:
        yield json.dumps(obj)


def json_int(obj: dict, key: str) -> int:
    """obj[key] if it is a JSON integer; 8.0, "8" and true are refused,
    not coerced."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


class Record:
    """An immutable record with no generated code: the fields are a subclass's
    own annotations in order, with class attributes as defaults; `__post_init__`
    runs if defined; `__dict__` holds exactly the fields, for eq, hash and repr."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        vars(self).update((name, values[name]) for name in self._fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class PrimePowerModulus(Record):
    """Ambient size N = p^M with p prime and M >= 1."""

    p: int
    m: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ValueError(f"exponent must be >= 1, got {self.m}")

    @property
    def n(self) -> int:
        return self.p ** self.m

    @classmethod
    def from_n(cls, n: int) -> "PrimePowerModulus":
        """Factor n as p^M, or raise ValueError if n is not a prime power.
        M is the largest exponent with an exact root, so the root is no
        perfect power, and n is a prime power iff the root is prime. An
        exact root is taken only where the float r = 2^(log2(n)/m) is 2^40
        or more or within r * 2^-40 of an integer (R * 2^-45 for n = R^m)."""
        if n < 2:
            raise ValueError(f"N must be >= 2, got {n}")
        log2n = math.log2(n)
        m = next(m for m in range(n.bit_length(), 0, -1) if (
            log2n / m >= 40 or abs((r := 2 ** (log2n / m)) - round(r)) <= r * 2 ** -40
        ) and _iroot(n, m) ** m == n)
        p = _iroot(n, m)
        if p >= PRIME_CERTIFIED:  # where Miller-Rabin costs O(b) products, proving nothing
            raise ValueError(f"N = {n} is a prime power only if {p} is prime, "
                             f"which is proved only below {PRIME_CERTIFIED}")
        if not is_prime(p):
            raise ValueError(f"N = {n} is not a prime power; "
                             "only the brute-force rank oracle applies")
        return cls(p, m)


class NotUniversalError(ValueError):
    """Raised when an operation needs a universal set but got a
    non-universal one; carries the verdict with its witness."""

    def __init__(self, verdict: UniversalityVerdict):
        self.verdict = verdict
        k, a, b = verdict.witness  # type: ignore[misc]
        super().__init__(
            f"set is not universal: residue {a} mod p^{k} holds at least two "
            f"fewer elements than residue {b}"
        )


class InfeasibleSizeError(ValueError):
    """Requested universal-subset size exceeds what the input admits."""

    def __init__(self, requested: int, maximal: int):
        self.requested = requested
        self.maximal = maximal
        super().__init__(
            f"no universal subset of size {requested}: the largest universal "
            f"subset has size {maximal}"
        )


class SingularSystemError(ValueError):
    """Linear system is numerically singular; carries the rank report."""

    def __init__(self, report: RankReport):
        self.report = report
        super().__init__(
            f"singular system: smallest singular value "
            f"{report.smallest_singular_value:.3e} below threshold "
            f"(tolerance {TOLERANCE:g})"
        )
