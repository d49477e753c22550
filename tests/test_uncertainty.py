import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisamp import (
    IndexSet,
    PrimePowerModulus,
    Signal,
    cauchy_davenport_check,
    is_universal,
    maximal_universal,
    minimal_universal,
    random_maximal_experiment,
    random_signal_uncertainty,
    sumset,
    support_profile,
    verify_uncertainty,
)
from unisamp.uncertainty import threshold_a
import reference
from reference import KNESER_FIXTURES


def iset(n, elems):
    return IndexSet.of(n, elems)


def sparse_spectrum_signal(n, support, rng):
    spectrum = np.zeros(n, dtype=np.complex128)
    idx = np.asarray(support)
    spectrum[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return Signal.of(np.fft.ifft(spectrum))


class TestSupportProfile:
    def test_zero_signal(self):
        p = support_profile(Signal.of([0, 0, 0, 0]))
        assert len(p.support) == 0 and len(p.zero_set) == 4

    def test_delta(self):
        p = support_profile(Signal.of([1, 0, 0, 0]))
        assert p.support.elements == (0,)
        spec = support_profile(Signal.of([1, 0, 0, 0]).spectrum())
        assert len(spec.support) == 4

    def test_two_tone_spectrum(self):
        rng = np.random.default_rng(0)
        sig = sparse_spectrum_signal(8, [0, 3], rng)
        assert len(support_profile(sig.spectrum()).support) == 2

    def test_non_finite_signal_refused(self):
        """A NaN would make the tolerance NaN and leave both the
        support and the zero set empty."""
        with pytest.raises(ValueError, match="values must be finite"):
            Signal.of([1, math.nan, 0, 0, 2, 0, 0, 0])
        with pytest.raises(ValueError, match="values must be finite"):
            Signal.of([1, 0, complex(0, math.inf), 0])

    def test_partition(self):
        rng = np.random.default_rng(1)
        sig = sparse_spectrum_signal(16, [1, 4, 9], rng)
        p = support_profile(sig)
        assert sorted(p.support.elements + p.zero_set.elements) == list(range(16))


class TestVerifyUncertainty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_four_constructions(self, data):
        """Phi(supp) read as N - Omega(zero set) equals minimal_universal
        on the support, on sparse signals and on combs (periodic, so the
        spectrum is sparse too)."""
        p, m = data.draw(st.sampled_from([(2, 3), (3, 2), (2, 5), (3, 5)]))
        modulus, n = PrimePowerModulus(p, m), p ** m
        period = p ** data.draw(st.integers(0, m))
        block = data.draw(st.lists(st.integers(-2, 2), min_size=period, max_size=period))
        if not any(block):
            block[0] = 1
        signal = Signal.of(block * (n // period))
        time, freq = support_profile(signal), support_profile(signal.spectrum())

        def omega(s):
            return maximal_universal(s, modulus).size

        def phi(s):
            return minimal_universal(s, modulus).size

        expected = (
            (len(freq.support), 1 + omega(time.zero_set)),
            (len(time.support), 1 + omega(freq.zero_set)),
            (phi(time.support), len(freq.zero_set) + 1),
            (phi(freq.support), len(time.zero_set) + 1),
        )
        report = verify_uncertainty(signal, modulus)
        assert tuple((c.lhs, c.rhs) for c in report.checks) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            verify_uncertainty(Signal.of([0] * 8), PrimePowerModulus(2, 3))

    def test_delta_max_slack(self):
        m = PrimePowerModulus(2, 3)
        rep = verify_uncertainty(Signal.of([1] + [0] * 7), m)
        assert rep.all_pass
        # delta has one-point support and full spectrum
        assert rep.checks[0].lhs == 8

    def test_vanishing_on_block(self):
        """A signal that is zero on [0:d-1] has at least d+1 spectral
        components, since a consecutive block is universal."""
        m = PrimePowerModulus(2, 4)
        rng = np.random.default_rng(21)
        for d in range(1, 12):
            vals = np.zeros(16, dtype=np.complex128)
            vals[d:] = rng.standard_normal(16 - d) + 1j * rng.standard_normal(16 - d)
            sig = Signal.of(vals)
            spec_supp = len(support_profile(sig.spectrum()).support)
            assert spec_supp >= d + 1
            assert verify_uncertainty(sig, m).all_pass

    @pytest.mark.parametrize("n,p,m", [(8, 2, 3), (9, 3, 2), (27, 3, 3)])
    def test_random_sparse_spectra(self, n, p, m):
        modulus = PrimePowerModulus(p, m)
        rng = np.random.default_rng(314)
        for _ in range(60):
            r = int(rng.integers(1, n))
            sig = sparse_spectrum_signal(n, rng.permutation(n)[:r], rng)
            assert verify_uncertainty(sig, modulus).all_pass

    def test_bound_equivalence_via_duality(self):
        """The Phi-form and Omega-form inequalities are the same bound:
        Phi(supp) = N - Omega(zero set)."""
        m = PrimePowerModulus(2, 4)
        rng = np.random.default_rng(7)
        for _ in range(40):
            r = int(rng.integers(1, 15))
            sig = sparse_spectrum_signal(16, rng.permutation(16)[:r], rng)
            prof = support_profile(sig)
            assert (
                minimal_universal(prof.support, m).size
                == 16 - maximal_universal(prof.zero_set, m).size
            )

    @pytest.mark.parametrize("n", [7, 11, 13])
    def test_prime_additive_bound(self, n):
        rng = np.random.default_rng(n)
        for _ in range(60):
            r = int(rng.integers(1, n))
            sig = sparse_spectrum_signal(n, rng.permutation(n)[:r], rng)
            supp_f = len(support_profile(sig).support)
            supp_ff = len(support_profile(sig.spectrum()).support)
            assert supp_f + supp_ff >= n + 1


class TestRandomMaximal:
    def test_full_set_always_succeeds(self):
        m = PrimePowerModulus(3, 2)
        s = random_maximal_experiment(m, 9, 5, 1.0, 25, seed=1)
        assert s.successes == 25 and s.empirical_probability == 1.0

    def test_singleton_target(self):
        m = PrimePowerModulus(2, 3)
        s = random_maximal_experiment(m, 4, 1, 1.0, 25, seed=2)
        assert s.successes == 25

    def test_parameter_refusal_names_both_sides(self):
        m = PrimePowerModulus(3, 2)
        with pytest.raises(ValueError, match="log"):
            random_maximal_experiment(m, 1, 8, 1.0, 10, seed=3)

    def test_reproducible(self):
        m = PrimePowerModulus(3, 3)
        a = random_maximal_experiment(m, 20, 4, 0.5, 40, seed=9)
        b = random_maximal_experiment(m, 20, 4, 0.5, 40, seed=9)
        assert a == b
        c = random_maximal_experiment(m, 20, 4, 0.5, 40, seed=10)
        assert c.parameters["seed"] != a.parameters["seed"]

    def test_summary_json_fields(self):
        m = PrimePowerModulus(2, 3)
        s = random_maximal_experiment(m, 8, 2, 1.0, 10, seed=0)
        obj = s.to_json()
        assert obj["prng"] == "PCG64"
        assert 0 <= obj["empirical_probability"] <= 1


def _experiment_cases():
    """(p, m, s, d, delta, trials, seed): 16 seeded draws with d the
    largest the parameter inequality admits, then s = N, d = 1, a
    trial count that is not a multiple of the 67 trials a block holds at
    N = 243, and N = 2^15, where a block holds one trial."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(16):
        p, m = [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2), (2, 5), (3, 4), (2, 7)][i % 8]
        n = p ** m
        s = int(rng.integers(1, n))
        delta = float(rng.choice([0.25, 0.5, 1.0]))
        lhs = n * math.log(n / (n - s))
        dmax = max(d for d in range(1, s + 1) if (1 + delta) * d * math.log(d) <= lhs)
        cases.append((p, m, s, dmax, delta,
                      int(rng.integers(1, 90)), i))
    return cases + [
        (3, 3, 27, 20, 0.5, 30, 16),
        (2, 6, 10, 1, 1.0, 40, 17),
        (3, 5, 230, 102, 0.5, 70, 18),
        (2, 15, 3000, 356, 0.5, 5, 19),
    ]


class TestRandomMaximalReference:
    @pytest.mark.parametrize("p,m,s,d,delta,trials,seed", _experiment_cases())
    def test_equals_greedy_loop(self, p, m, s, d, delta, trials, seed):
        got = random_maximal_experiment(PrimePowerModulus(p, m), s, d, delta, trials, seed)
        assert got.trials == trials
        assert got.successes == reference.random_maximal_successes(p, m, s, d, trials, seed)


class TestRandomSignal:
    def test_threshold_refusal(self):
        m = PrimePowerModulus(2, 10)
        a = threshold_a(1024, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            random_signal_uncertainty(m, math.ceil(a), 1.0, 10, seed=0)

    def test_small_support_always_passes(self):
        m = PrimePowerModulus(2, 10)
        s = random_signal_uncertainty(m, 1, 1.0, 30, seed=5)
        assert s.successes == 30

    def test_fixed_seed_run(self):
        m = PrimePowerModulus(2, 10)
        s = random_signal_uncertainty(m, 4, 1.0, 50, seed=77)
        assert s == random_signal_uncertainty(m, 4, 1.0, 50, seed=77)
        assert s.within_bound

    def test_threshold_convexity_bound(self):
        """a - r never exceeds N log(N/r) / ((1+delta) log N)."""
        n, delta = 1024, 1.0
        a = threshold_a(n, delta)
        for r in range(1, n // 2 + 1):
            assert a - r <= n * math.log(n / r) / ((1 + delta) * math.log(n)) + 1e-9


class TestSumset:
    def test_fixture_eight(self):
        got = sumset(iset(8, [0, 1]), iset(8, [0, 4]))
        assert got.elements == (0, 1, 4, 5)

    def test_singleton_translates(self):
        got = sumset(iset(8, [1, 3, 6]), iset(8, [2]))
        assert got.elements == (0, 3, 5)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            sumset(iset(8, [0]), iset(9, [0]))

    def test_kneser_fixtures_computed_values(self):
        for fx in KNESER_FIXTURES:
            got = sumset(iset(fx["n"], fx["x"]), iset(fx["n"], fx["y"]))
            assert got.elements == fx["computed_sumset"]
        # the second fixture's quoted value disagrees with computation
        assert KNESER_FIXTURES[1]["discrepancy"]
        assert (
            KNESER_FIXTURES[1]["quoted_sumset"]
            != KNESER_FIXTURES[1]["computed_sumset"]
        )


class TestCauchyDavenport:
    def test_fixture_eight(self):
        m = PrimePowerModulus(2, 3)
        rep = cauchy_davenport_check(iset(8, [0, 1]), iset(8, [0, 4]),
                                     sumset(iset(8, [0, 1]), iset(8, [0, 4])), m)
        assert rep.sumset_size == 4
        assert rep.direct_applicable and rep.direct_bound == 3
        assert rep.direct_pass and rep.omega_pass

    def test_singleton_equality(self):
        m = PrimePowerModulus(3, 2)
        rep = cauchy_davenport_check(iset(9, [4]), iset(9, [0, 2, 7]),
                                     sumset(iset(9, [4]), iset(9, [0, 2, 7])), m)
        assert rep.sumset_size == 3 == rep.direct_bound

    def test_prime_always_applicable(self):
        import random

        m = PrimePowerModulus(7, 1)
        rng = random.Random(15)
        for _ in range(60):
            x = iset(7, rng.sample(range(7), rng.randint(1, 4)))
            y = iset(7, rng.sample(range(7), rng.randint(1, 7 - len(x) + 1)))
            if len(x) + len(y) - 1 > 7:
                continue
            rep = cauchy_davenport_check(x, y, sumset(x, y), m)
            assert rep.direct_applicable and rep.direct_pass

    def test_omega_bound_exhaustive_small(self):
        m = PrimePowerModulus(2, 3)
        from conftest import all_subsets

        for xe in all_subsets(8):
            if not xe:
                continue
            x = iset(8, xe)
            for ye in ([0], [0, 4], [1, 2, 3], [0, 1, 2, 3, 4, 5]):
                rep = cauchy_davenport_check(x, iset(8, ye), sumset(x, iset(8, ye)), m)
                assert rep.omega_pass

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3)])
    def test_applicable_iff_a_summand_is_universal(self, p, m):
        """direct_applicable, read from Omega(S) = |S|, against the
        residue criterion on each summand."""
        modulus, n = PrimePowerModulus(p, m), p ** m
        rng = np.random.default_rng(31)
        for _ in range(200):
            x, y = (iset(n, rng.permutation(n)[: rng.integers(1, n // 2)]) for _ in "xy")
            want = len(x) + len(y) - 1 <= n and (
                is_universal(x, modulus).is_universal or is_universal(y, modulus).is_universal)
            assert cauchy_davenport_check(x, y, sumset(x, y), modulus).direct_applicable == want
