"""Additive uncertainty principles, random-set and random-signal
experiments, and sumset bounds.

The key quantities: Omega(S) is the size of a largest universal subset
of S, Phi(S) the size of a smallest universal superset. Supports of a
signal and of its spectrum cannot both be small, and the bounds below
quantify that through Omega and Phi.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .base import PrimePowerModulus, Record, same_group
from .index_core import IndexSet
from .fourier import Signal
from .universality import _omega_rows, maximal_universal


class SupportProfile(Record):
    support: IndexSet
    zero_set: IndexSet


def _in_support(values: np.ndarray) -> np.ndarray:
    """|x| > 1e-9 max|x| for each value x, the support: structural zeros of
    synthesized signals classify correctly despite roundoff."""
    mags = np.abs(values)
    return mags > 1e-9 * float(mags.max(initial=0.0))


def support_profile(signal: Signal) -> SupportProfile:
    """Split indices into support and zero set (see `_in_support`)."""
    support = IndexSet._trusted(signal.n, np.flatnonzero(_in_support(signal.values)))
    return SupportProfile(support, support.complement())


class BoundCheck(Record):
    """The inequality lhs >= rhs."""

    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs


class UncertaintyReport(Record):
    checks: tuple[BoundCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}
                for c in self.checks
            ],
            "all_pass": self.all_pass,
        }


def verify_uncertainty(signal: Signal, modulus: PrimePowerModulus) -> UncertaintyReport:
    """Check the four support-size inequalities for a nonzero signal.

    With Z = zero set and supp = support, of the signal f and its
    spectrum Ff:
      |supp(Ff)| >= 1 + Omega(Z(f))     |supp(f)| >= 1 + Omega(Z(Ff))
      |Z(Ff)| + 1 <= Phi(supp(f))       |Z(f)| + 1 <= Phi(supp(Ff))
    The zero set is the support's complement, so by complement duality
    Phi(supp) = N - Omega(Z), and one Omega fold over the two zero sets
    decides all four.
    """
    n = same_group(signal=signal, modulus=modulus)
    time = support_profile(signal)
    freq = support_profile(signal.spectrum())
    if len(time.support) == 0:
        raise ValueError("uncertainty bounds apply to nonzero signals only")

    zeros = np.zeros((2, n), dtype=bool)
    zeros[0, time.zero_set.array] = zeros[1, freq.zero_set.array] = True
    omega_time, omega_freq = _omega_rows(zeros, modulus).tolist()
    return UncertaintyReport((
        BoundCheck("spectrum support vs zero-set Omega",
                   len(freq.support), 1 + omega_time),
        BoundCheck("signal support vs spectral zero-set Omega",
                   len(time.support), 1 + omega_freq),
        BoundCheck("support Phi vs spectral zero count",
                   n - omega_time, len(freq.zero_set) + 1),
        BoundCheck("spectral support Phi vs zero count",
                   n - omega_freq, len(time.zero_set) + 1),
    ))


class RandomExperimentSummary(Record):
    trials: int
    successes: int
    theoretical_bound: float
    parameters: dict

    @property
    def empirical_probability(self) -> float:
        return self.successes / self.trials

    @property
    def slack(self) -> float:
        """Three-sigma binomial fluctuation allowance at the bound."""
        p = min(max(self.theoretical_bound, 0.0), 1.0)
        return 3.0 * math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def within_bound(self) -> bool:
        return self.empirical_probability >= self.theoretical_bound - self.slack

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "empirical_probability": self.empirical_probability,
            "theoretical_bound": self.theoretical_bound,
            "slack_3_sigma": self.slack,
            "within_bound": self.within_bound,
            "prng": "PCG64",  # the bit generator of `_trial_rng`
            "parameters": self.parameters,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # independent stream per trial; results do not depend on scheduling
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def random_maximal_experiment(
    modulus: PrimePowerModulus,
    s: int,
    d: int,
    delta: float,
    trials: int,
    seed: int,
) -> RandomExperimentSummary:
    """Frequency with which a uniform random s-subset of Z_N contains a
    universal subset of size d.

    Requires N log(1/lambda) >= (1+delta) d log d with
    lambda = (N-s)/N; under it the success probability is at least
    1 - d^(-delta).

    Trial t draws _trial_rng(seed, t).permutation(N)[:s] and succeeds
    when Omega >= d, read from one fold of the congruence tree over
    blocks of at most 2^14 indicator entries (one trial when N > 2^14),
    so memory stays flat in the trial count.
    """
    n = modulus.n
    if not 0 <= s <= n:
        raise ValueError(f"sample size {s} outside [0:{n}]")
    if d < 1 or not 0 < delta < math.inf or trials < 1:
        raise ValueError("need d >= 1, delta > 0, trials >= 1")
    lam = (n - s) / n
    lhs = math.inf if lam == 0 else n * math.log(1.0 / lam)
    rhs = (1 + delta) * d * math.log(d)
    if lhs < rhs:
        raise ValueError(
            f"parameter inequality fails: N log(1/lambda) = {lhs:.4f} < "
            f"(1+delta) d log d = {rhs:.4f}"
        )
    successes, per_block = 0, max(1, 2 ** 14 // n)
    for start in range(0, trials, per_block):
        block = np.zeros((min(per_block, trials - start), n), dtype=bool)
        for row, t in enumerate(range(start, start + len(block))):
            block[row, _trial_rng(seed, t).permutation(n)[:s]] = True
        successes += int(np.count_nonzero(_omega_rows(block, modulus) >= d))
    bound = 1.0 - d ** (-delta) if d > 1 else 1.0 if s >= 1 else 0.0
    return RandomExperimentSummary(
        trials,
        successes,
        bound,
        {"N": n, "s": s, "d": d, "delta": delta, "lambda": lam, "seed": seed},
    )


def threshold_a(n: int, delta: float) -> float:
    """Support-size threshold a_{N,delta} in the random-signal bound."""
    return (
        n
        / ((1 + delta) * math.log(n))
        * (1 + math.log(1 + delta) + math.log(math.log(n)))
    )


def random_signal_uncertainty(
    modulus: PrimePowerModulus,
    r: int,
    delta: float,
    trials: int,
    seed: int,
) -> RandomExperimentSummary:
    """Frequency with which a random r-sparse signal g satisfies
    |supp(g)| + |supp(Fg)| >= 1 + a_{N,delta}.

    Supports are uniform r-subsets, values standard complex Gaussians.
    Holds with probability at least 1 - (a - r)^(-delta) when r < a.
    """
    if not 0 < delta < math.inf or trials < 1:
        raise ValueError("need delta > 0, trials >= 1")
    n = modulus.n
    a = threshold_a(n, delta)
    if not 1 <= r <= n:
        raise ValueError(f"support size {r} outside [1:{n}]")
    if r >= a:
        raise ValueError(f"support size {r} must be below the threshold a = {a:.4f}")
    successes = 0
    target = 1.0 + a
    for t in range(trials):
        rng = _trial_rng(seed, t)
        support = rng.permutation(n)[:r]
        values = np.zeros(n, dtype=np.complex128)
        values[support] = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        supp_g = int(np.count_nonzero(np.abs(values) > 0))
        supp_fg = int(np.count_nonzero(_in_support(np.fft.fft(values))))
        if supp_g + supp_fg >= target:
            successes += 1
    bound = 1.0 - (a - r) ** (-delta)
    return RandomExperimentSummary(
        trials,
        successes,
        bound,
        {"N": n, "r": r, "delta": delta, "a": a, "seed": seed},
    )


def sumset(x: IndexSet, y: IndexSet) -> IndexSet:
    """All pairwise sums mod N."""
    n, ys = same_group(x=x, y=y), y.array.tolist()
    sums = {(a + b) % n for a in x.array.tolist() for b in ys}
    return IndexSet.of(n, sums)


class CauchyDavenportReport(Record):
    sumset_size: int
    direct_applicable: bool
    direct_bound: Optional[int]
    direct_pass: Optional[bool]
    omega_bound: int
    omega_pass: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def cauchy_davenport_check(
    x: IndexSet, y: IndexSet, sums: IndexSet, modulus: PrimePowerModulus
) -> CauchyDavenportReport:
    """Sumset lower bounds over Z_{p^M}, for `sums` = sumset(x, y).

    When either summand is universal (Omega(S) = |S|) and |X|+|Y|-1 <= N,
    the direct bound |X+Y| >= |X|+|Y|-1 applies. The fallback bound
    replaces one summand's size by its largest universal subset and
    always applies (clamped at N: a universal set plus enough elements
    covers everything).
    """
    n, size = same_group(x=x, y=y, sums=sums, modulus=modulus), len(sums)
    direct = len(x) + len(y) - 1
    omega_x = maximal_universal(x, modulus).size
    omega_y = maximal_universal(y, modulus).size
    applicable = direct <= n and (omega_x == len(x) or omega_y == len(y))
    fallback = min(n, max(omega_x + len(y) - 1, len(x) + omega_y - 1))
    return CauchyDavenportReport(
        size,
        applicable,
        direct if applicable else None,
        size >= direct if applicable else None,
        fallback,
        size >= fallback,
    )

