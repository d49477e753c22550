"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from unisamp import (
    IndexSet,
    PrimePowerModulus,
    Signal,
    bracelet_count,
    brute_force_universal,
    chi_star,
    condition_report,
    count_by_brute_force,
    count_universal,
    dispersion,
    interpolate,
    is_invertible,
    is_universal,
    is_universal_via_dispersion,
    maximal_universal,
    random_maximal_experiment,
    residue_histogram,
    sumset,
    universal_subset_of_size,
)
from unisamp.uncertainty import support_profile, verify_uncertainty
from reference import KNESER_FIXTURES, digit_reverse, read_levels


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:2d}: FAIL - {summary}")
        raise
    print(f"CRITERION {num:2d}: PASS - {summary}")


def iset(n, elems):
    return IndexSet.of(n, elems)


def all_masks(n):
    return range(1 << n)


def mask_to_elems(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def test_criterion_01_criterion_oracle_equivalence():
    with criterion(1, "multiset criterion equals rank oracle at N=8,9,16"):
        for n, p, m in ((8, 2, 3), (9, 3, 2)):
            modulus = PrimePowerModulus(p, m)
            for mask in all_masks(n):
                s = iset(n, mask_to_elems(mask, n))
                assert (
                    is_universal(s, modulus).is_universal
                    == brute_force_universal(s, n)
                ), f"disagreement at N={n}, I={s.elements}"
        n = 16
        modulus = PrimePowerModulus(2, 4)
        for d in range(0, 9):
            for elems in combinations(range(n), d):
                s = IndexSet(n, elems)
                assert (
                    is_universal(s, modulus).is_universal
                    == brute_force_universal(s, n)
                ), f"disagreement at N=16, I={elems}"
        rng = np.random.default_rng(1601)
        for _ in range(10_000):
            d = int(rng.integers(9, 17))
            s = iset(n, (int(x) for x in rng.permutation(n)[:d]))
            assert (
                is_universal(s, modulus).is_universal
                == brute_force_universal(s, n)
            ), f"disagreement at N=16, I={s.elements}"


def test_criterion_02_worked_multiset_example():
    with criterion(2, "N=8, I={0,1,3,4,6} level multisets match"):
        modulus = PrimePowerModulus(2, 3)
        s = iset(8, [0, 1, 3, 4, 6])
        hist = read_levels(residue_histogram(s, modulus))
        assert sorted(hist[1], reverse=True) == [3, 2]
        assert sorted(hist[2], reverse=True) == [2, 1, 1, 1]
        assert hist[3] == (1, 1, 0, 1, 1, 0, 1, 0)
        star = read_levels(chi_star(5, modulus))
        for k in range(4):
            assert sorted(hist[k]) == sorted(star[k])
        assert is_universal(s, modulus).is_universal


def test_criterion_03_maximal_algorithm_fixture():
    with criterion(3, "N=32 greedy fixture: size 7, levels (2,1,0)"):
        modulus = PrimePowerModulus(2, 5)
        s = iset(32, [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 12, 14, 15])
        r = maximal_universal(s, modulus)
        assert r.size == 7
        assert r.decomposition.k_sequence == (2, 1, 0)
        assert r.example.elements == (0, 1, 2, 3, 4, 6, 7)


def test_criterion_04_maximal_equals_brute_force_optimum():
    with criterion(4, "greedy maximal size is optimal for all subsets, N=8,9"):
        for n, p, m in ((8, 2, 3), (9, 3, 2)):
            modulus = PrimePowerModulus(p, m)
            universal = [
                is_universal(iset(n, mask_to_elems(mask, n)), modulus).is_universal
                for mask in all_masks(n)
            ]
            popcount = [bin(mask).count("1") for mask in all_masks(n)]
            for mask in all_masks(n):
                best = 0
                sub = mask
                while True:
                    if universal[sub]:
                        best = max(best, popcount[sub])
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
                got = maximal_universal(
                    iset(n, mask_to_elems(mask, n)), modulus
                ).size
                assert got == best, f"N={n}, mask={mask:b}: {got} != {best}"


def test_criterion_05_counting_formula():
    with criterion(5, "count formula = enumeration at N=8,9,16, with symmetry"):
        for n, p, m in ((8, 2, 3), (9, 3, 2), (16, 2, 4)):
            modulus = PrimePowerModulus(p, m)
            for d in range(n + 1):
                assert count_universal(d, modulus) == count_by_brute_force(
                    d, modulus
                ), f"N={n}, d={d}"
                assert count_universal(d, modulus) == count_universal(
                    n - d, modulus
                )
        assert count_universal(4, PrimePowerModulus(2, 3)) == 16
        assert count_universal(8, PrimePowerModulus(2, 4)) == 256


def test_criterion_06_chebotarev():
    with criterion(6, "prime N: every square DFT submatrix is invertible"):
        tol = 1e-10
        for d in (1, 2, 3):
            for rows in combinations(range(7), d):
                for cols in combinations(range(7), d):
                    rep = is_invertible(iset(7, rows), iset(7, cols))
                    assert rep.full_rank
                    assert rep.smallest_singular_value > 1e3 * tol
        rng = np.random.default_rng(613)
        for n in (11, 13):
            for _ in range(5000):
                d = int(rng.integers(1, n + 1))
                rows = iset(n, (int(x) for x in rng.permutation(n)[:d]))
                cols = iset(n, (int(x) for x in rng.permutation(n)[:d]))
                rep = is_invertible(rows, cols)
                assert rep.full_rank
                assert rep.smallest_singular_value > 1e3 * tol


def _round_trip_trials(n, p, m, trials, seed):
    modulus = PrimePowerModulus(p, m)
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        pool = iset(n, (int(x) for x in rng.permutation(n)[: 3 * n // 4]))
        cap = maximal_universal(pool, modulus).size
        d = int(rng.integers(1, min(cap, n // 2) + 1))
        sample_set = universal_subset_of_size(pool, modulus, d)
        support = iset(n, (int(x) for x in rng.permutation(n)[:d]))
        spectrum = np.zeros(n, dtype=np.complex128)
        idx = np.asarray(support.elements)
        spectrum[idx] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = np.fft.ifft(spectrum)
        samples = f[np.asarray(sample_set.elements)]
        got = interpolate(samples, sample_set, support).values
        rel = np.linalg.norm(got - f) / np.linalg.norm(f)
        assert rel < 1e-8, f"N={n}, d={d}: relative error {rel:.2e}"
        rep = condition_report(support)
        assert rep.condition_number >= rep.lower_bound * (1 - 1e-9)
        done += 1


def test_criterion_07_interpolation_round_trip():
    with criterion(7, "10^3 reconstructions at N=16,32 within 1e-8"):
        _round_trip_trials(16, 2, 4, 500, seed=716)
        _round_trip_trials(32, 2, 5, 500, seed=732)
        # ill-conditioned path: consecutive low frequencies at N=64
        rep = condition_report(iset(64, range(8)))
        assert rep.lower_bound > 10.0
        assert math.isfinite(rep.condition_number)
        assert rep.condition_number >= rep.lower_bound * (1 - 1e-9)


def _sparse_spectrum_signal(n, rng):
    r = int(rng.integers(1, n))
    spectrum = np.zeros(n, dtype=np.complex128)
    idx = rng.permutation(n)[:r]
    spectrum[idx] = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return Signal.of(np.fft.ifft(spectrum))


def test_criterion_08_uncertainty_inequalities():
    with criterion(8, "support-size inequalities hold on 10^3 random signals"):
        for n, p, m in ((8, 2, 3), (9, 3, 2), (16, 2, 4), (27, 3, 3), (32, 2, 5)):
            modulus = PrimePowerModulus(p, m)
            rng = np.random.default_rng(800 + n)
            for _ in range(200):
                sig = _sparse_spectrum_signal(n, rng)
                rep = verify_uncertainty(sig, modulus)
                assert rep.all_pass, f"N={n}: {rep.to_json()}"
        for n in (7, 11, 13):
            rng = np.random.default_rng(870 + n)
            for _ in range(334):
                sig = _sparse_spectrum_signal(n, rng)
                supp_f = len(support_profile(sig).support)
                supp_ff = len(support_profile(sig.spectrum()).support)
                assert supp_f + supp_ff >= n + 1, f"N={n} additive bound"


def test_criterion_09_sumset_bound():
    with criterion(9, "Cauchy-Davenport bound, exhaustive at N=8,9,16"):
        for n, p, m in ((8, 2, 3), (9, 3, 2), (16, 2, 4)):
            modulus = PrimePowerModulus(p, m)
            full = (1 << n) - 1
            masks = np.arange(1 << n, dtype=np.uint32)
            pop = np.zeros(1 << n, dtype=np.int32)
            for mask in range(1, 1 << n):
                pop[mask] = pop[mask >> 1] + (mask & 1)
            y_sizes = pop
            for x_mask in range(1, 1 << n):
                x = mask_to_elems(x_mask, n)
                if not is_universal(iset(n, x), modulus).is_universal:
                    continue
                # sumset of X with every Y at once: union of rotations
                sums = np.zeros(1 << n, dtype=np.uint32)
                for e in x:
                    sums |= ((masks << e) | (masks >> (n - e))) & full if e else masks
                sizes = pop[sums]
                bound = len(x) + y_sizes - 1
                ok = (y_sizes == 0) | (bound > n) | (sizes >= bound)
                assert ok.all(), f"N={n}, X={x}"
        for fx in KNESER_FIXTURES:
            got = sumset(iset(fx["n"], fx["x"]), iset(fx["n"], fx["y"]))
            assert got.elements == fx["computed_sumset"]


def test_criterion_10_random_set_probability():
    with criterion(10, "random subsets of Z_243 contain large universal sets"):
        modulus = PrimePowerModulus(3, 5)
        n, s, delta = 243, 230, 0.5
        lam = (n - s) / n
        # largest d honoring N log(1/lambda) >= (1+delta) d log d
        d = 2
        while n * math.log(1 / lam) >= (1 + delta) * (d + 1) * math.log(d + 1):
            d += 1
        summary = random_maximal_experiment(
            modulus, s, d, delta, trials=10_000, seed=1024
        )
        assert summary.within_bound, summary.to_json()
        assert summary.empirical_probability >= (
            summary.theoretical_bound - summary.slack
        )


def test_criterion_11_bracelet_counts():
    with criterion(11, "bracelet formula equals orbit enumeration, n<=16"):
        for n in range(1, 17):
            full = (1 << n) - 1
            refl = [0] * (1 << n)
            canon_count = {}
            seen = set()
            for mask in range(1 << n):
                if mask in seen:
                    continue
                # walk the whole dihedral orbit of this mask
                orbit = set()
                for base in (mask, _reflect(mask, n)):
                    cur = base
                    for _ in range(n):
                        cur = ((cur >> 1) | ((cur & 1) << (n - 1))) & full
                        orbit.add(cur)
                seen |= orbit
                d = bin(mask).count("1")
                canon_count[d] = canon_count.get(d, 0) + 1
            for d in range(n + 1):
                assert bracelet_count(n, d) == canon_count.get(d, 0), (n, d)
        assert bracelet_count(12, 4) >= 2


def _reflect(mask: int, n: int) -> int:
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << (-i % n)
    return out


def test_criterion_12_digit_reversal_criterion():
    with criterion(12, "dispersion criterion matches, with pointwise identity"):
        n = 16
        modulus = PrimePowerModulus(2, 4)
        for mask in all_masks(n):
            s = iset(n, mask_to_elems(mask, n))
            assert (
                is_universal_via_dispersion(s, modulus)
                == is_universal(s, modulus).is_universal
            ), f"mask={mask:b}"
        # pointwise identity between block counts of the reversed set and
        # residue counts of the original, on random sets at N=64
        modulus = PrimePowerModulus(2, 6)
        rng = np.random.default_rng(1219)
        for _ in range(1000):
            d = int(rng.integers(1, 65))
            s = iset(64, (int(x) for x in rng.permutation(64)[:d]))
            rev = iset(64, (digit_reverse(e, 2, 6) for e in s))
            disp = read_levels(dispersion(rev, modulus))
            hist = read_levels(residue_histogram(s, modulus))
            for k in range(7):
                for a in range(1 << k):
                    assert (
                        disp[k][digit_reverse(a, 2, k)]
                        == hist[k][a]
                    )
