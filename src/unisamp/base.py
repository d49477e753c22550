"""What the integer-only layer needs, with no numpy: the prime-power
modulus, the exceptions of a failed mathematical check (the CLI's
exit 1), and the decoding and integer checks of JSON input files.
`index_core`, `universality` and `fourier` re-export the modulus and
the exceptions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass


def is_prime(n: int) -> bool:
    """Primality by trial division; fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def file_text(raw: bytes) -> str:
    """A file's bytes decoded as `open(path).read()` decodes them: the
    locale's encoding, strictly, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw)).read()


def json_int(obj: dict, key: str) -> int:
    """obj[key] if it is a JSON integer; 8.0, "8" and true are refused,
    not coerced."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class PrimePowerModulus:
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
        """Factor n as p^M, or raise ValueError if n is not a prime power."""
        if n < 2:
            raise ValueError(f"N must be >= 2, got {n}")
        for p in range(2, n + 1):
            if p * p > n:
                break
            if n % p == 0:
                m = 0
                rest = n
                while rest % p == 0:
                    rest //= p
                    m += 1
                if rest != 1:
                    raise ValueError(
                        f"N = {n} is not a prime power; "
                        "only the brute-force rank oracle applies"
                    )
                return cls(p, m)
        return cls(n, 1)  # n itself is prime


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
            f"(tolerance {report.tolerance:g})"
        )
