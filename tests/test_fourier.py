import json
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import act, find_sampling_set, interpolating_basis
from unisamp import (
    IndexSet,
    Signal,
    SingularSystemError,
    bracelet_canonical,
    bracelet_count,
    brute_force_universal,
    condition_report,
    dft_submatrix,
    interpolate,
    is_invertible,
    is_universal,
    PrimePowerModulus,
)
from unisamp.fourier import _oracle_verdict, dft_matrix
from unisamp.index_core import bracelet_representatives


def iset(n, elems):
    return IndexSet.of(n, elems)


class TestDftMatrix:
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 256])
    def test_unitary_up_to_scale(self, n):
        f = dft_matrix(n)
        assert np.allclose(f.conj().T @ f / n, np.eye(n), atol=1e-12)

    def test_row_zero_is_ones(self):
        sub = dft_submatrix(iset(8, [0]), iset(8, [3]))
        assert np.allclose(sub, [[1.0]])

    def test_single_entry(self):
        sub = dft_submatrix(iset(4, [1]), iset(4, [2]))
        assert np.allclose(sub, [[-1.0]])

    def test_unit_modulus(self):
        sub = dft_submatrix(iset(16, [1, 5, 7]), iset(16, [2, 3]))
        assert np.allclose(np.abs(sub), 1.0)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            dft_submatrix(iset(8, [0]), iset(9, [0]))


class TestIsInvertible:
    def test_singular_fixture(self):
        r = is_invertible(iset(4, [0, 2]), iset(4, [0, 2]))
        assert not r.full_rank
        assert r.smallest_singular_value < 1e-12

    def test_one_by_one(self):
        assert is_invertible(iset(12, [5]), iset(12, [7])).full_rank

    def test_report_records_order(self):
        r = is_invertible(iset(4, [0, 2]), iset(4, [0, 2]))
        assert (r.numerical_rank, r.order) == (1, 2)
        empty = is_invertible(iset(8, []), iset(8, []))
        assert (empty.order, empty.full_rank) == (0, True)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            is_invertible(iset(8, [0, 1]), iset(8, [0]))

    def test_prime_modulus_all_invertible(self):
        for d in (1, 2, 3):
            for rows in combinations(range(7), d):
                for cols in combinations(range(7), d):
                    assert is_invertible(iset(7, rows), iset(7, cols)).full_rank

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_duality_and_shift_invariance(self, data):
        n = data.draw(st.sampled_from([8, 9, 12, 16]))
        d = data.draw(st.integers(1, min(n, 5)))
        rows = iset(n, data.draw(st.permutations(range(n)))[:d])
        cols = iset(n, data.draw(st.permutations(range(n)))[:d])
        base = is_invertible(rows, cols).full_rank
        assert is_invertible(cols, rows).full_rank == base
        t = data.draw(st.integers(0, n - 1))
        assert is_invertible(act(rows, t), cols).full_rank == base
        assert is_invertible(act(rows, 0, reflect=True), cols).full_rank == base


class TestBruteForceUniversal:
    def test_fixtures(self):
        assert brute_force_universal(iset(8, [0, 1, 3, 4, 6]), 8)
        assert not brute_force_universal(iset(8, [0, 1, 4, 5]), 8)

    def test_arithmetic_progression_coprime_step(self):
        assert brute_force_universal(iset(12, [0, 5, 10, 3]), 12)

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            brute_force_universal(iset(32, range(16)), 32)  # C(32, 16) > 2^24

    @pytest.mark.parametrize("n,p,m", [(8, 2, 3), (9, 3, 2)])
    def test_agrees_with_criterion_on_random_sets(self, n, p, m):
        modulus = PrimePowerModulus(p, m)
        rng = random.Random(99)
        for _ in range(40):
            d = rng.randint(1, n)
            s = iset(n, rng.sample(range(n), d))
            assert brute_force_universal(s, n) == is_universal(s, modulus).is_universal

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("tolerance", [1e-10, 0.5, 0.999, 1.0, 2.0])
    def test_one_element_against_its_minors(self, n, tolerance):
        """A set of one element, or missing one, is decided with no row
        block; the verdict still equals the rank test of every 1 x 1
        minor of the one-element side, all of which pass. A 1 x 1 minor
        has one singular value, so it clears a threshold relative to its
        largest singular value exactly when that threshold is below 1."""
        for a in range(n):
            reports = [is_invertible(iset(n, [a]), iset(n, [b])) for b in range(n)]
            assert all(r.full_rank for r in reports)
            assert all((r.smallest_singular_value > tolerance * r.largest_singular_value)
                       == (tolerance < 1) for r in reports)
            assert brute_force_universal(iset(n, [a]), n)
            rest = [e for e in range(n) if e != a]
            assert brute_force_universal(iset(n, rest), n)

    def test_consecutive_rows_past_half(self):
        """Consecutive rows give Vandermonde minors in distinct nodes, so
        every column set passes; at d = 98 of 100 the oracle tests the
        2-element row complement."""
        assert brute_force_universal(iset(100, range(98)), 100)
        assert brute_force_universal(iset(100, [*range(60, 100), *range(58)]), 100)

    def test_equals_plain_oracle_past_half(self):
        """Every row set past N/2 at N = 10, where the complement is
        tested, against every column set of the rows themselves."""
        for d in range(6, 11):
            for rows in combinations(range(10), d):
                assert brute_force_universal(iset(10, rows), 10) == \
                    reference.plain_oracle(rows, 10), rows

    def test_equals_plain_oracle_random(self):
        rng = random.Random(1212)
        for _ in range(40):
            rows = sorted(rng.sample(range(12), rng.randint(0, 12)))
            assert brute_force_universal(iset(12, rows), 12) == \
                reference.plain_oracle(rows, 12), rows

    def test_rotated_reflected_rows_hit_cache(self):
        rows = iset(12, [0, 1, 4, 6, 9])
        verdict = brute_force_universal(rows, 12)
        before = _oracle_verdict.cache_info()
        assert brute_force_universal(act(rows, 5, reflect=True), 12) == verdict
        after = _oracle_verdict.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestColumnClasses:
    """The oracle's column classes (bracelet_representatives) against the
    per-subset mask canonicalizer in tests/reference.py: one row per
    class, every class present."""

    @staticmethod
    def classes(n, d):
        rows = bracelet_representatives(n, d)
        assert rows.shape == (len(rows), d) and not rows.flags.writeable
        masks = [sum(1 << e for e in row) for row in rows.tolist()]
        return sorted(reference.canonical_mask(m, n) for m in masks)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_equal_reference(self, n):
        for d in range(1, n // 2 + 1):
            assert self.classes(n, d) == sorted(reference.canonical_column_masks(n, d)), d

    @pytest.mark.parametrize("n,d", [(66, 2), (70, 1)])
    def test_equal_reference_past_64_bits(self, n, d):
        assert self.classes(n, d) == sorted(reference.canonical_column_masks(n, d))

    @pytest.mark.parametrize("n,d", [(18, 9), (20, 10), (22, 11), (2001, 2)])
    def test_count_is_bracelet_count(self, n, d):
        assert len(bracelet_representatives(n, d)) == bracelet_count(n, d)

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 15, 20])
    def test_rows_are_canonical_up_to_half(self, n):
        """For d <= n/2 each row is its class's bracelet_canonical form."""
        for d in range(n // 2 + 1):
            for row in bracelet_representatives(n, d).tolist():
                assert bracelet_canonical(IndexSet(n, row)).canonical.elements == tuple(row)


class TestInterpolate:
    def test_dc_only(self):
        got = interpolate([3.5 + 1j], iset(8, [2]), iset(8, [0]))
        assert np.allclose(got.values, (3.5 + 1j) * np.ones(8))

    def test_round_trip_random(self):
        rng = np.random.default_rng(4242)
        n = 8
        sample_set = iset(n, [0, 1, 3, 4, 6])
        for _ in range(25):
            support = iset(n, rng.permutation(n)[:5])
            spectrum = np.zeros(n, dtype=np.complex128)
            spectrum[np.asarray(support.elements)] = rng.standard_normal(
                5
            ) + 1j * rng.standard_normal(5)
            f = np.fft.ifft(spectrum)
            samples = f[np.asarray(sample_set.elements)]
            got = interpolate(samples, sample_set, support).values
            assert np.linalg.norm(got - f) / np.linalg.norm(f) < 1e-8

    def test_singular_raises_with_report(self):
        with pytest.raises(SingularSystemError) as exc:
            interpolate([1.0, 2.0], iset(4, [0, 2]), iset(4, [0, 2]))
        assert exc.value.report.smallest_singular_value < 1e-12

    def test_duality_of_solvability(self):
        rng = random.Random(5)
        n = 16
        for _ in range(30):
            d = rng.randint(1, 6)
            i = iset(n, rng.sample(range(n), d))
            j = iset(n, rng.sample(range(n), d))
            assert (
                is_invertible(i, j).full_rank == is_invertible(j, i).full_rank
            )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            interpolate([1.0], iset(8, [0]), iset(8, [0, 1]))

    def test_empty_system(self):
        got = interpolate([], iset(8, []), iset(8, []))
        assert got == Signal.of([0] * 8)

    @pytest.mark.parametrize("n,d", [(8, 3), (16, 5), (64, 9), (256, 24)])
    def test_matches_dense_synthesis(self, n, d):
        """Same coefficients as the N x N formula f = F*[:, J] c."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(n)
        f_star = dft_matrix(n).conj()
        checked = 0
        for _ in range(10):
            i, j = (np.sort(rng.permutation(n)[:d]) for _ in range(2))
            if not is_invertible(iset(n, i), iset(n, j)).full_rank:
                continue
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a = f_star[np.ix_(i, j)]
            lu = scipy_linalg.lu_factor(a)
            c = scipy_linalg.lu_solve(lu, b)
            c += scipy_linalg.lu_solve(lu, b - a @ c)
            want = f_star[:, j] @ c
            got = interpolate(b, iset(n, i), iset(n, j)).values
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            checked += 1
        assert checked

    def test_large_system_memory_bound(self):
        n, d = 8192, 1024
        rng = np.random.default_rng(8192)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[:d] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        f = np.fft.ifft(spectrum)
        tracemalloc.start()
        try:
            got = interpolate(f[:: n // d], iset(n, range(0, n, n // d)),
                              iset(n, range(d)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2 ** 20
        assert np.linalg.norm(got.values - f) <= 1e-9 * np.linalg.norm(f)

    def test_signal_memory_past_a_million_samples(self):
        """The signal is one complex array, scaled in place and adopted
        uncopied: at N = 2^20 with d = 1 the traced peak stays under 2.2
        times its 16N bytes (the spectrum and the inverse FFT; a scaled
        copy and the signal's own copy took 3.1), and the values are
        those of N * ifft."""
        n = 1 << 20
        sample_set, support = iset(n, [5]), iset(n, [7])
        tracemalloc.start()
        try:
            got = interpolate([1.5 - 2j], sample_set, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * 16 * n
        a, b = np.conj(dft_submatrix(sample_set, support)), np.array([1.5 - 2j])
        c = np.linalg.solve(a, b)
        c += np.linalg.solve(a, b - a @ c)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[7] = c[0]
        assert np.array_equal(got.values, n * np.fft.ifft(spectrum))
        assert got.values[5] == pytest.approx(1.5 - 2j)
        assert np.allclose(np.abs(got.values), 2.5)


class TestInterpolatingBasis:
    def test_identity_case(self):
        n, d = 6, 3
        r = np.zeros((n, d))
        r[:d, :] = np.eye(d)
        u = interpolating_basis(r, iset(n, range(d)))
        assert np.allclose(u, r)

    def test_kronecker_property(self):
        rng = np.random.default_rng(11)
        n, d = 16, 5
        j = iset(n, [0, 2, 3, 9, 12])
        r = dft_matrix(n).conj()[:, np.asarray(j.elements)]
        i = iset(n, [0, 1, 3, 4, 6])
        u = interpolating_basis(r, i)
        sel = u[np.asarray(i.elements), :]
        assert np.allclose(sel, np.eye(d), atol=1e-10)

    def test_basis_independence(self):
        """Same subspace through a different basis gives the same result."""
        rng = np.random.default_rng(12)
        n, d = 16, 4
        r = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        i = find_sampling_set(r)
        u1 = interpolating_basis(r, i)
        u2 = interpolating_basis(r @ g, i)
        assert np.allclose(u1, u2, atol=1e-9)

    def test_singular_selection_rejected(self):
        r = np.zeros((6, 2), dtype=complex)
        r[3, 0] = r[4, 1] = 1.0
        with pytest.raises(SingularSystemError):
            interpolating_basis(r, iset(6, [0, 1]))


class TestFindSamplingSet:
    def test_identity_prefix(self):
        r = np.eye(8)[:, :3]
        assert set(find_sampling_set(r)) == {0, 1, 2}

    def test_full_square(self):
        got = find_sampling_set(dft_matrix(8))
        assert got == IndexSet.full(8)

    def test_feeds_interpolating_basis(self):
        rng = np.random.default_rng(13)
        n = 16
        for _ in range(20):
            j = iset(n, rng.permutation(n)[:5])
            r = dft_matrix(n).conj()[:, np.asarray(j.elements)]
            i = find_sampling_set(r)
            assert is_invertible(i, j).full_rank
            interpolating_basis(r, i)  # must not raise

    def test_rank_deficient_rejected(self):
        r = np.ones((8, 2), dtype=complex)
        with pytest.raises(ValueError, match="rank"):
            find_sampling_set(r)

    def test_pivots_of_lapack_pivoted_qr(self):
        """Equal to scipy's QR pivots on random complex bases. On DFT
        bases rounding breaks the ties, so there the rows must be full
        rank and conditioned within a factor 2 of scipy's."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(240)

        def scipy_rows(r):
            piv = scipy_linalg.qr(r.T.conj(), pivoting=True, mode="economic")[2]
            return iset(len(r), piv[: r.shape[1]])

        def inverse_condition(r, rows):
            sv = np.linalg.svd(r[rows.array], compute_uv=False)
            return sv[-1] / sv[0]

        for _ in range(240):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, n + 1))
            r = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            assert find_sampling_set(r) == scipy_rows(r)
        for _ in range(240):
            n = int(rng.choice([8, 9, 16, 25, 27, 32]))
            d = int(rng.integers(1, n + 1))
            r = dft_matrix(n).conj()[:, np.sort(rng.permutation(n)[:d])]
            got = find_sampling_set(r)
            assert np.linalg.matrix_rank(r[got.array]) == d
            assert inverse_condition(r, got) >= 0.5 * inverse_condition(r, scipy_rows(r))


class TestConditionReport:
    def test_trivial_single(self):
        r = condition_report(iset(8, [5]))
        assert r.condition_number == pytest.approx(1.0)
        assert r.lower_bound == pytest.approx(1.0)

    def test_spread_support_perfectly_conditioned(self):
        n, d = 64, 8
        support = iset(n, range(0, n, n // d))
        r = condition_report(support)
        assert r.condition_number == pytest.approx(1.0, abs=1e-9)
        assert r.lower_bound == pytest.approx(1.0, abs=1e-9)

    def test_clustered_support_bound_holds(self):
        n, d = 64, 8
        r = condition_report(iset(n, range(d)))
        assert r.lower_bound > 10.0
        assert r.condition_number >= r.lower_bound * (1 - 1e-9)

    def test_bound_matches_pairwise_loop(self):
        n, d = 4096, 512
        support = sorted(np.random.default_rng(4096).permutation(n)[:d].tolist())
        r = condition_report(iset(n, support))
        log_p = reference.sine_product_log(support, n)
        want = math.sqrt(d) * math.exp(-log_p / (2 * d))
        assert r.lower_bound == pytest.approx(want, rel=1e-11)


class TestSignal:
    def test_json_round_trip(self):
        s = Signal.of([1 + 2j, 0, -1j, 4])
        again = Signal.from_json(json.loads(s.dumps()))
        assert again == s

    def test_bad_json(self):
        with pytest.raises(ValueError, match="values"):
            Signal.from_json({"n": 2})

    def test_length_checked(self):
        with pytest.raises(ValueError):
            Signal(3, (1 + 0j,))

    def test_to_json_equals_per_sample_pairs(self):
        """The same JSON as [[v.real, v.imag] for v in a tuple of Python
        complex numbers, at signed zeros, subnormals, extremes and ints."""
        vals = [-0.0, 5e-324, 1e308, -1e308, 3, -7, complex(-0.0, 1e308),
                complex(2, -5e-324), complex(-1e308, -0.0), 0]
        want = {"n": len(vals), "values": [[v.real, v.imag] for v in map(complex, vals)]}
        assert Signal.of(vals).dumps() == json.dumps(want)
        assert Signal.of(np.array(vals)).dumps() == json.dumps(want)

    def test_spectrum_matches_matrix(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = Signal.of(vals)
        assert np.allclose(s.spectrum().values, dft_matrix(8) @ vals)
