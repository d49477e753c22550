import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import unisamp
from unisamp.cli import build_parser, main, parse_indices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_plain_list(self):
        assert parse_indices("0,3,1").tolist() == [0, 3, 1]

    def test_ranges(self):
        assert parse_indices("0..4,6,7").tolist() == [0, 1, 2, 3, 4, 6, 7]

    def test_bad_range(self):
        with pytest.raises(ValueError, match="range"):
            parse_indices("5..2")

    def test_bad_token(self):
        with pytest.raises(ValueError, match="integer"):
            parse_indices("1,x")


class TestCheck:
    def test_universal(self, capsys):
        code, out, _ = run(capsys, "check", "-N", "8", "-I", "0,1,3,4,6")
        assert code == 0
        obj = json.loads(out)
        assert obj["universal"] is True
        assert obj["criteria_agree"] is True

    def test_expect_mismatch_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "-N", "8", "-I", "0,1,4,5", "--expect", "universal"
        )
        assert code == 1
        assert json.loads(out)["witness"] == {"k": 2, "a": 2, "b": 0}

    def test_composite_modulus_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "-N", "12", "-I", "0,1")
        assert code == 2
        assert "prime power" in err

    def test_index_file(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"n": 8, "indices": [0, 1, 3, 4, 6]}))
        code, out, _ = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert code == 0 and json.loads(out)["universal"]

    def test_index_file_n_mismatch(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"n": 9, "indices": [0]}))
        code, _, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert code == 2 and "n=9" in err

    def test_malformed_json_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert code == 2 and "JSON" in err


class TestConstructions:
    def test_maximal_fixture(self, capsys):
        code, out, _ = run(
            capsys, "maximal", "-N", "32", "-I", "0..4,6..10,12,14,15"
        )
        obj = json.loads(out)
        assert code == 0 and obj["size"] == 7
        assert obj["example"] == [0, 1, 2, 3, 4, 6, 7]
        assert [p["k"] for p in obj["pieces"]] == [2, 1, 0]

    def test_construct_pipes_to_check(self, capsys):
        code, out, _ = run(
            capsys, "construct", "-N", "32", "-I", "0..4,6..10,12,14,15",
            "--size", "5",
        )
        assert code == 0
        built = json.loads(out)
        code2, out2, _ = run(
            capsys, "check", "-N", "32",
            "-I", ",".join(str(i) for i in built["indices"]),
        )
        assert code2 == 0 and json.loads(out2)["universal"]

    def test_construct_infeasible(self, capsys):
        code, _, err = run(
            capsys, "construct", "-N", "8", "-I", "0,2,4,6", "--size", "3"
        )
        assert code == 1 and "largest universal subset has size 1" in err

    def test_decompose_failure_prints_witness(self, capsys):
        code, _, err = run(capsys, "decompose", "-N", "8", "-I", "0,1,4,5")
        assert code == 1
        assert json.loads(err)["witness"]["k"] == 2

    def test_minimal(self, capsys):
        code, out, _ = run(capsys, "minimal", "-N", "9", "-I", "0,1,2,3,6")
        obj = json.loads(out)
        assert code == 0 and obj["size"] == len(obj["example"])


class TestLargeModulus:
    """At N = 2^30 a small set costs memory in proportion to |I|; a
    list over Z_N alone would take gigabytes."""

    N = str(2 ** 30)

    def run_small(self, capsys, *argv):
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        return result

    def test_check(self, capsys):
        code, out, _ = self.run_small(capsys, "check", "-N", self.N, "-I", "0,1,5")
        assert code == 0
        assert json.loads(out) == {
            "universal": False,
            "witness": {"k": 2, "a": 2, "b": 1},
            "criteria_agree": True,
            "valuation_coprime": False,
        }

    def test_maximal(self, capsys):
        code, out, _ = self.run_small(capsys, "maximal", "-N", self.N, "-I", "0,1,5,1048576")
        assert code == 0
        assert json.loads(out) == {
            "size": 2,
            "example": [0, 1],
            "pieces": [{"k": 1, "indices": [0, 1]}],
        }

    def test_decompose(self, capsys):
        code, out, _ = self.run_small(capsys, "decompose", "-N", self.N, "-I", "0,3,5")
        assert code == 0
        assert json.loads(out) == {
            "pieces": [{"k": 1, "indices": [0, 3]}, {"k": 0, "indices": [5]}]
        }
        code, _, err = self.run_small(capsys, "decompose", "-N", self.N, "-I", "0,1,5")
        assert code == 1
        assert json.loads(err)["witness"] == {"k": 2, "a": 2, "b": 1}


class TestCountingCommands:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "-p", "2", "-M", "3", "-d", "4")
        assert code == 0 and out.strip() == "16"

    def test_count_past_digit_limit(self, capsys):
        """The count at N = 2^16, d = 32767 has 9,869 digits, more than
        the interpreter prints by default."""
        p, m, d = 2, 16, 32767
        # every node of the congruence tree splits its count c evenly
        # among its p children, in C(p, c mod p) ways
        want = 1
        for k in range(m):
            q, r = divmod(d, p ** k)
            want *= math.comb(p, (q + 1) % p) ** r * math.comb(p, q % p) ** (p ** k - r)
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "count", "-p", "2", "-M", "16", "-d", "32767")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{want}\n"
            assert len(out) == 9869 + 1
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv,want", [
        (["-p", "2", "-M", "1030", "-d", "1"], 2 ** 1030),
        (["-p", "3", "-M", "700", "-d", "2"], 3 ** 1399),  # N (N - N/3) / 2
    ])
    def test_count_with_exponents_past_float_range(self, capsys, argv, want):
        """C(p, 0) to the power 2^1029 - 1 is 1, not a float overflow."""
        assert run(capsys, "count", *argv) == (0, f"{want}\n", "")

    def test_count_past_float_range_is_refused(self, capsys):
        """C(2, 1)^(2^1099): its digit count is past float range, and the
        count is refused like any other past the digit limit."""
        code, out, err = run(capsys, "count", "-p", "2", "-M", "1100", "-d", str(2 ** 1099))
        assert (code, out) == (2, "")
        assert err.startswith("error: the count at d=")
        assert err.endswith("decimal digits, more than the limit of 1000000\n")

    def test_entropy_past_float_range(self, capsys):
        """N = 2^1100: the rows of N = 8, exponents divided by N exactly."""
        code, out, _ = run(capsys, "entropy", "-p", "2", "-M", "1100", "--resolution", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,1100,2", "0.5,0.34657359028,1100,2", "1,0,1100,2"]

    def test_count_brute_matches(self, capsys):
        _, direct, _ = run(capsys, "count", "-N", "9", "-d", "7")
        _, brute, _ = run(capsys, "count", "-N", "9", "-d", "7", "--brute")
        assert direct == brute == "27\n"

    def test_entropy_csv(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "-p", "2", "-M", "3", "--resolution", "3"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "alpha,normalized_log_count,M,p"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,")

    def test_bracelets_count(self, capsys):
        code, out, _ = run(capsys, "bracelets", "-n", "6", "--count", "2")
        assert code == 0 and out.strip() == "3"

    def test_bracelets_count_past_digit_limit(self, capsys):
        """The class count at n = 20000, d = 10000 has 6,014 digits, more
        than the interpreter prints by default."""
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bracelets", "-n", "20000", "--count", "10000")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{unisamp.bracelet_count(20000, 10000)}\n"
            assert len(out) == 6014 + 1 and out.startswith("56140066568658638538")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bracelets_count_past_digit_cap(self, capsys):
        """C(10^7, 5 * 10^6) / 2 * 10^7, a lower bound of the class count,
        has about 3.01e6 digits: refused before the count is formed."""
        start = time.perf_counter()
        code, out, err = run(capsys, "bracelets", "-n", "10000000", "--count", "5000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: the count at n=10000000, d=5000000 has about 3.01e+06 "
                       "decimal digits, more than the limit of 1000000\n")

    def test_bracelets_empty_ambient_usage_error(self, capsys):
        code, out, err = run(capsys, "bracelets", "-n", "0", "--count", "0")
        assert code == 2 and out == ""
        assert "ambient size must be >= 1" in err

    def test_bracelets_canonical(self, capsys):
        code, out, _ = run(capsys, "bracelets", "-n", "12", "--canonical", "1,4,6,11")
        obj = json.loads(out)
        assert code == 0
        assert obj["canonical"] == sorted(obj["canonical"])
        assert (2 * 12) % obj["orbit_size"] == 0


def _limited_child(*argv):
    """`python *argv` with src on the path, one BLAS thread, 1 GB of
    address space and 60 s, so a hostile-size regression fails the test
    instead of exhausting the machine."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60,
        preexec_fn=limit, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_bracelets_canonical_large_n_bounded_memory():
    """The canonical form costs O(|I|), not O(N |I|): at N = 200000 a
    block of 2001 elements, its own mirror image, is canonical with an
    orbit of N translates."""
    start = time.perf_counter()
    proc = _limited_child("-m", "unisamp.cli", "bracelets", "-n", "200000",
                          "--canonical", "0..2000")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10
    assert json.loads(proc.stdout) == {"canonical": list(range(2001)), "orbit_size": 200000}


@pytest.mark.parametrize("n,top", [(4096, 4095), (5793, 5790)])
def test_oracle_past_half_bounded_memory(n, top):
    """Past N/2 the oracle tests the complement, so the full set of 4096
    rows and 5791 of 5793 rows (C(5793, 2) is inside the budget) are
    decided from a row block of at most 2 x N entries, within 1 GB."""
    start = time.perf_counter()
    proc = _limited_child("-m", "unisamp.cli", "oracle", "-N", str(n), "-I", f"0..{top}")
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 10
    assert proc.stdout == '{"universal": true}\n'


def test_out_of_memory_exits_two():
    """2^28 indices are 2 GiB as int64; past the child's 1 GB of address
    space that is one `error:` line and exit 2, not a traceback."""
    proc = _limited_child("-m", "unisamp.cli", "check", "-N", "268435456",
                          "-I", "0..268435455")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


P = 1000000007
_LARGE_P_CALLS = [
    (["check", "-N", str(P), "-I", "0,1"],
     {"universal": True, "criteria_agree": True, "valuation_coprime": True}),
    (["maximal", "-N", str(P), "-I", f"0,5,{P - 1}"],
     {"size": 3, "example": [0, 5, P - 1], "pieces": [
         {"k": 0, "indices": [0]}, {"k": 0, "indices": [5]}, {"k": 0, "indices": [P - 1]}]}),
    (["construct", "-N", str(P), "-I", f"0,5,{P - 1}", "--size", "2"],
     {"n": P, "indices": [0, 5]}),
    (["sumset", "-N", str(P), "-X", "0,1", "-Y", "0,2", "--check"],
     {"sumset": [0, 1, 2, 3], "check": {
         "sumset_size": 4, "direct_applicable": True, "direct_bound": 3,
         "direct_pass": True, "omega_bound": 3, "omega_pass": True}}),
    (["check", "-N", str(P * P), "-I", f"0,1,{P}"],
     {"universal": False, "witness": {"k": 1, "a": 2, "b": 0},
      "criteria_agree": True, "valuation_coprime": False}),
    (["maximal", "-N", str(P * P), "-I", f"0,1,{P}"],
     {"size": 2, "example": [0, 1], "pieces": [
         {"k": 0, "indices": [0]}, {"k": 0, "indices": [1]}]}),
    (["construct", "-N", str(P * P), "-I", f"0,1,{P}", "--size", "2"],
     {"n": P * P, "indices": [0, 1]}),
    (["sumset", "-N", str(P * P), "-X", f"0,{P}", "-Y", "0,1", "--check"],
     {"sumset": [0, 1, P, P + 1], "check": {
         "sumset_size": 4, "direct_applicable": True, "direct_bound": 3,
         "direct_pass": True, "omega_bound": 3, "omega_pass": True}}),
]


@pytest.mark.parametrize("argv,want", _LARGE_P_CALLS,
                         ids=[" ".join(argv[:3]) for argv, _ in _LARGE_P_CALLS])
def test_large_prime_base_residue_calls(argv, want):
    """At p = 10^9 + 7 no allocation follows p: each call answers within
    1 GB of address space in well under a second of its own work."""
    start = time.perf_counter()
    proc = _limited_child("-m", "unisamp.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == want
    assert time.perf_counter() - start < 5


Q = 18446744073709551557  # the largest prime below 2^64
_PAST_INT64_CALLS = [
    (["maximal", "-N", str(Q), "-I", "0,1"],
     {"size": 2, "example": [0, 1], "pieces": [
         {"k": 0, "indices": [0]}, {"k": 0, "indices": [1]}]}),
    (["construct", "-N", str(Q), "-I", "0,1", "--size", "1"], {"n": Q, "indices": [0]}),
    (["decompose", "-N", str(Q), "-I", "0,1"],
     {"pieces": [{"k": 0, "indices": [0]}, {"k": 0, "indices": [1]}]}),
    (["maximal", "-N", str(2 ** 64), "-I", "0..5"],
     {"size": 6, "example": [0, 1, 2, 3, 4, 5], "pieces": [
         {"k": 2, "indices": [0, 1, 2, 3]}, {"k": 1, "indices": [4, 5]}]}),
    (["construct", "-N", str(2 ** 64), "-I", "0..5", "--size", "3"],
     {"n": 2 ** 64, "indices": [0, 1, 2]}),
    (["decompose", "-N", str(2 ** 64), "-I", "0..3"],
     {"pieces": [{"k": 2, "indices": [0, 1, 2, 3]}]}),
]


@pytest.mark.parametrize("argv,want", _PAST_INT64_CALLS,
                         ids=[" ".join(argv[:3]) for argv, _ in _PAST_INT64_CALLS])
def test_constructions_past_int64(capsys, argv, want):
    """N past int64, as `check` answers there: no table or sentinel of
    the constructions holds N or p^(k+1) in an int64."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == want


@pytest.mark.parametrize("n", [Q, 2 ** 64])
def test_minimal_past_int64_is_refused(n):
    """The complement of two indices in Z_N, N past int64, cannot be
    held: one `error:` line naming N and the complement's size, and
    exit 2, not a traceback."""
    proc = _limited_child("-m", "unisamp.cli", "minimal", "-N", str(n), "-I", "0,1")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: the complement in Z_{n} has {n - 2} elements, "
                           "more than an array can hold\n")


def test_count_at_deep_exponent_is_fast(capsys):
    """M = 100,000 and d = 1: 2^100000, 30,103 digits. Only d's one
    digit is expanded and no place value is formed: under a second."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "-p", "2", "-M", "100000", "-d", "1")
    assert time.perf_counter() - start < 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert (code, out) == (0, f"{2 ** 100000}\n")
    finally:
        sys.set_int_max_str_digits(limit)


def test_entropy_at_deep_exponent_is_fast(capsys):
    """M = 100,000: d = N/4, N/2, 3N/4 have one or two nonzero digits,
    found by halving splits, with two place values each."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "entropy", "-p", "2", "-M", "100000", "--resolution", "5")
    assert time.perf_counter() - start < 1
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0] == "0,0,100000,2" and rows[-1] == "1,0,100000,2"
    assert [row.split(",")[1] for row in rows[1:-1]] == ["0.34657359028"] * 3


# The traced peaks of the residue calls on 1,000 random indices at
# N = (10^9 + 7)^2, inside the child.
_LARGE_P_PEAK_SCRIPT = """
import json, tracemalloc
import numpy as np
from unisamp import (IndexSet, PrimePowerModulus, is_universal, is_universal_via_chi_star,
                     is_universal_via_dispersion, maximal_universal, schur_valuation,
                     universal_subset_of_size)

p = 1000000007
modulus = PrimePowerModulus(p, 2)
indices = np.random.default_rng(7).integers(0, p * p, 1000)
calls = {
    "check": lambda s: (is_universal(s, modulus), is_universal_via_chi_star(s, modulus),
                        is_universal_via_dispersion(s, modulus), schur_valuation(s, modulus)),
    "maximal": lambda s: maximal_universal(s, modulus),
    "construct": lambda s: universal_subset_of_size(s, modulus, 500),
}
peaks = {}
for name, call in calls.items():
    s = IndexSet.of(p * p, np.unique(indices))
    tracemalloc.start()
    call(s)
    peaks[name] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_large_prime_base_traced_peaks():
    """1,000 indices at N = (10^9 + 7)^2: `check`'s four readings,
    `maximal` and `construct` each trace under 1 MB."""
    proc = _limited_child("-c", _LARGE_P_PEAK_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout)
    assert all(peak < 1 << 20 for peak in peaks.values()), peaks


@pytest.mark.parametrize("argv,want", [
    (["-N", "2305843009213693951"], "2305843009213693951"),
    (["-p", "2305843009213693951", "-M", "1"], "2305843009213693951"),
    (["-N", "1000000014000000049"], "1000000014000000049"),
])
def test_count_at_large_prime_base(capsys, argv, want):
    """Prime bases near 2^61 are factored and certified without trial
    division: one element is universal, so the count at d = 1 is N."""
    start = time.perf_counter()
    assert run(capsys, "count", *argv, "-d", "1") == (0, want + "\n", "")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ["count", "-p", "1000000007", "-M", "1", "-d", "500000000"],
    ["count", "-N", str(2 ** 89 - 1), "-d", "1"],
])
def test_large_prime_base_refusals_exit_two(capsys, argv):
    """A count of about 3 * 10^8 digits is refused from its log, without
    forming a binomial; a prime past the certified bound is refused."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert time.perf_counter() - start < 1.0


def test_oracle_single_row_at_2_24_bounded_rss():
    """The 1 x 2^24 row block is built in one complex buffer beside its
    int64 phase, so the child's peak RSS stays under 640 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "unisamp.cli", "oracle", "-N", "16777216", "-I", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    ) as proc:
        out, err = proc.stdout.read(), proc.stderr.read()
        # reap the child here, not in Popen, to read its own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err
    assert out == '{"universal": true}\n'
    assert usage.ru_maxrss < 640 * 1024


def test_oracle_one_row_needs_no_row_block():
    """A tested set of one element is decided without its 1 x N row
    block, so `oracle -N 2^24 -I 0` peaks under 100 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "unisamp.cli", "oracle", "-N", "16777216", "-I", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    ) as proc:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err
    assert out == '{"universal": true}\n'
    assert usage.ru_maxrss < 100 * 1024


# Times the middle counts at N = 2^40 (about 1.7e11 digits) and 2^24
# (about 2.5 million digits) inside the child.
_COUNT_CAP_SCRIPT = """
import contextlib, io, json, time
from unisamp.cli import main

report = []
for m in (40, 24):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", "-p", "2", "-M", str(m), "-d", str(2 ** (m - 1))])
    report.append([code, out.getvalue(), err.getvalue(), time.perf_counter() - start])
print(json.dumps(report))
"""


def test_count_past_digit_cap_usage_error():
    """Counts past 10^6 decimal digits are refused before they are formed."""
    proc = _limited_child("-c", _COUNT_CAP_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    for m, (code, out, err, seconds) in zip((40, 24), json.loads(proc.stdout)):
        assert code == 2 and out == "" and seconds < 1
        assert err.startswith(f"error: the count at d={2 ** (m - 1)} has about")
        assert err.endswith("decimal digits, more than the limit of 1000000\n")


class TestAnalysisCommands:
    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "oracle", "-N", "12", "-I", "0,3,5,10")
        assert code == 0
        assert isinstance(json.loads(out)["universal"], bool)

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan"])
    def test_oracle_degenerate_tolerance_usage_error(self, capsys, tolerance):
        """The oracle's singular-value rule is fixed, so `--tolerance` is an
        unrecognized argument: these values, which once made the
        non-universal {0, 1, 4, 5} pass, stay usage errors (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "-N", "8", "-I", "0,1,4,5", "--tolerance", tolerance])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: --tolerance {tolerance}\n")

    def test_interpolate_round_trip(self, capsys, tmp_path):
        import numpy as np

        n = 8
        support = [0, 2, 3, 5, 7]
        sample_idx = [0, 1, 3, 4, 6]
        rng = np.random.default_rng(6)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[support] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = np.fft.ifft(spectrum)
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(
            json.dumps(
                {
                    "n": n,
                    "indices": sample_idx,
                    "values": [[f[i].real, f[i].imag] for i in sample_idx],
                }
            )
        )
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": n, "indices": support}))
        code, out, _ = run(
            capsys, "interpolate", "-N", str(n),
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert code == 0
        got = np.array([complex(re, im) for re, im in json.loads(out)["values"]])
        assert np.linalg.norm(got - f) / np.linalg.norm(f) < 1e-8

    def test_interpolate_shuffled_indices(self, capsys, tmp_path):
        """Values are paired with their own indices, whatever the file order."""
        import numpy as np

        n, support = 16, [1, 2, 5, 11]
        rng = np.random.default_rng(11)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[support] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = np.fft.ifft(spectrum)
        sample_idx = [9, 0, 14, 3]
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(json.dumps({
            "n": n, "indices": sample_idx,
            "values": [[f[i].real, f[i].imag] for i in sample_idx],
        }))
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": n, "indices": support}))
        code, out, _ = run(
            capsys, "interpolate", "-N", str(n),
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert code == 0
        got = np.array([complex(re, im) for re, im in json.loads(out)["values"]])
        assert np.abs(got - f).max() < 1e-12

    def test_interpolate_length_mismatch(self, capsys, tmp_path):
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(
            json.dumps({"n": 8, "indices": [0, 3], "values": [[1.0, 0.0]]})
        )
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": 8, "indices": [1, 2]}))
        code, out, err = run(
            capsys, "interpolate", "-N", "8",
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert code == 2 and out == ""
        assert "2 sample indices but 1 values" in err

    def test_condition(self, capsys):
        code, out, _ = run(capsys, "condition", "-N", "64", "-J", "0,8,16,24,32,40,48,56")
        obj = json.loads(out)
        assert code == 0
        assert obj["condition_number"] == pytest.approx(1.0, abs=1e-9)

    def test_condition_empty_support_usage_error(self, capsys):
        code, out, err = run(capsys, "condition", "-N", "8", "-J", "")
        assert code == 2 and out == ""
        assert "nonempty support" in err

    def test_uncertainty(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"n": 8, "values": [[1, 0]] + [[0, 0]] * 7}))
        code, out, _ = run(capsys, "uncertainty", "-N", "8", "--signal", str(sig))
        assert code == 0 and json.loads(out)["all_pass"]

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_uncertainty_non_finite_usage_error(self, capsys, tmp_path, bad):
        sig = tmp_path / "sig.json"
        sig.write_text('{"n": 8, "values": [[%s, 0]%s]}' % (bad, ", [0, 0]" * 7))
        code, out, err = run(capsys, "uncertainty", "-N", "8", "--signal", str(sig))
        assert (code, out, err) == (2, "", "error: values must be finite\n")

    def test_interpolate_non_finite_usage_error(self, capsys, tmp_path):
        samples_file = tmp_path / "samples.json"
        samples_file.write_text('{"n": 8, "indices": [0, 3], "values": [[NaN, 0], [1, 0]]}')
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": 8, "indices": [1, 2]}))
        code, out, err = run(
            capsys, "interpolate", "-N", "8",
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert (code, out, err) == (2, "", "error: values must be finite\n")

    def test_sumset_check(self, capsys):
        code, out, _ = run(capsys, "sumset", "-N", "8", "-X", "0,1", "-Y", "0,4", "--check")
        obj = json.loads(out)
        assert code == 0
        assert obj["sumset"] == [0, 1, 4, 5]
        assert obj["check"]["direct_pass"] is True

    def test_sumset_check_computes_the_sumset_once(self, capsys, monkeypatch):
        """`--check` bounds the sumset it prints; it does not compute it again."""
        import unisamp.uncertainty as uncertainty

        calls, real = [], uncertainty.sumset
        monkeypatch.setattr(uncertainty, "sumset", lambda x, y: calls.append(1) or real(x, y))
        code, out, _ = run(capsys, "sumset", "-N", "9", "-X", "0,1", "-Y", "0,3", "--check")
        assert code == 0 and json.loads(out)["check"]["sumset_size"] == 4
        assert len(calls) == 1

    def test_rand_maximal_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rand-maximal", "-p", "3", "-M", "2", "-s", "9", "-d", "3",
                  "--delta", "0.5", "--trials", "5"])
        assert exc.value.code == 2

    def test_rand_signal_runs(self, capsys):
        code, out, _ = run(
            capsys, "rand-signal", "-p", "2", "-M", "6", "-r", "2",
            "--delta", "1.0", "--trials", "10", "--seed", "3",
        )
        obj = json.loads(out)
        assert code == 0 and obj["trials"] == 10


class TestExitCodes:
    """Which exceptions exit 1 (a failed mathematical check) and which
    exit 2 (a usage error)."""

    def test_interpolate_singular_exits_one(self, capsys, tmp_path):
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(
            json.dumps({"n": 8, "indices": [0, 4], "values": [[1.0, 0.0], [0.0, 1.0]]})
        )
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": 8, "indices": [0, 2]}))
        code, out, err = run(
            capsys, "interpolate", "-N", "8",
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert code == 1 and out == ""
        assert err.startswith("singular system")

    def test_construct_size_zero_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "construct", "-N", "8", "-I", "0,2,4,6", "--size", "0"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: target size 0")

    def test_uncertainty_signal_length_mismatch(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"n": 9, "values": [[1, 0]] * 9}))
        code, out, err = run(capsys, "uncertainty", "-N", "8", "--signal", str(sig))
        assert code == 2 and out == ""
        assert err == "error: inputs live in different groups: signal in Z_9, modulus in Z_8\n"

    @pytest.mark.parametrize("extra", [["-p", "3"], ["-M", "2"], ["-p", "3", "-M", "2"]])
    @pytest.mark.parametrize("argv", [["check", "-I", "0,1"], ["count", "-d", "1"]])
    def test_n_with_p_or_m_is_usage_error(self, capsys, argv, extra):
        """-N names the modulus alone: -p or -M beside it is refused, not
        ignored."""
        code, out, err = run(capsys, *argv, "-N", "8", *extra)
        assert code == 2 and out == ""
        assert err == "error: specify -N, or -p with -M, not both\n"

    @pytest.mark.parametrize("p,m,message", [
        ("4", "2", "p = 4 is not prime"), ("2", "0", "exponent must be >= 1, got 0"),
    ])
    @pytest.mark.parametrize("argv", [
        ["entropy", "--resolution", "3"], ["count", "-d", "3"], ["check", "-I", "0,1,2"],
        ["construct", "-I", "0,1,2", "--size", "1"], ["uncertainty", "--signal", "x.json"],
        ["rand-signal", "-r", "1", "--delta", "1", "--trials", "1", "--seed", "0"],
        ["sumset", "-X", "0", "-Y", "0"], ["sumset", "-X", "0", "-Y", "0", "--check"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
    def test_p_and_m_build_the_modulus_as_written(self, capsys, argv, p, m, message):
        """-p must be prime and -M at least 1 in every command: p^M is not
        refactored, so -p 4 -M 2 is not read as 2^4, nor -M 0 as N = 1."""
        assert run(capsys, *argv, "-p", p, "-M", m) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("modulus", [["-N", "9"], ["-p", "3", "-M", "2"]])
    def test_n_alone_or_p_with_m(self, capsys, modulus):
        assert run(capsys, "count", *modulus, "-d", "1") == (0, "9\n", "")
        code, out, _ = run(capsys, "check", *modulus, "-I", "0,1")
        assert code == 0 and json.loads(out)["universal"] is True


# The console script's body: `run` exits with the code itself.
_CONSOLE_SCRIPT = "import sys; from unisamp.cli import run; sys.argv[0] = 'unisamp'; sys.exit(run())"


@pytest.mark.parametrize("entry", [["-m", "unisamp.cli"], ["-c", _CONSOLE_SCRIPT]],
                         ids=["module", "console-script"])
def test_process_entry_passes_output_and_exit_codes(capsys, entry):
    """`run` (collector off, heap frozen at exit) gives the exit codes,
    stdout and stderr that `main` gives in process, a piped stdout of
    about 900 kB included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    calls = [
        ["check", "-N", "8", "-I", "0,1,3,4,6"],
        ["check", "-N", "8", "-I", "0,1,4,5", "--expect", "universal"],
        ["construct", "-N", "8", "-I", "0,2,4,6", "--size", "0"],
        ["maximal", "-N", "65536", "-I", "0..65535"],
    ]
    codes = []
    for argv in calls:
        want = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == want
        codes.append(proc.returncode)
    assert codes == [0, 1, 2, 0]
    assert len(proc.stdout) > 800_000


def test_main_leaves_collector_on(capsys):
    """Only the process entry turns the collector off; in-process
    callers of `main` keep it."""
    assert gc.isenabled()
    assert run(capsys, "maximal", "-N", "9", "-I", "0,1,2,3,6")[0] == 0
    assert gc.isenabled()


class TestNonIntegerIndices:
    """Fractional or float-typed indices are refused, never truncated."""

    @pytest.mark.parametrize("indices", [[0.5, 1.7, 3.9], [2.0]])
    def test_index_file(self, capsys, tmp_path, indices):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"n": 8, "indices": indices}))
        code, out, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert code == 2 and out == ""
        assert "indices must be integers" in err

    def test_interpolate_sample_indices(self, capsys, tmp_path):
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(
            json.dumps({"n": 8, "indices": [0, 1.5], "values": [[1.0, 0.0], [0.0, 1.0]]})
        )
        support_file = tmp_path / "support.json"
        support_file.write_text(json.dumps({"n": 8, "indices": [0, 2]}))
        code, out, err = run(
            capsys, "interpolate", "-N", "8",
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert code == 2 and out == ""
        assert "indices must be integers" in err


class TestBooleanIndices:
    """A JSON true among integer indices is refused, not read as 1."""

    def test_index_file(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"n": 8, "indices": [true, 3]}')
        code, out, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert (code, out) == (2, "") and "indices must be integers" in err

    def test_samples_file(self, capsys, tmp_path):
        samples_file = tmp_path / "samples.json"
        samples_file.write_text(
            '{"n": 8, "indices": [true, 3], "values": [[1, 0], [0, 1]]}')
        support_file = tmp_path / "support.json"
        support_file.write_text('{"n": 8, "indices": [1, 2]}')
        code, out, err = run(
            capsys, "interpolate", "-N", "8",
            "--samples", str(samples_file), "--support", str(support_file),
        )
        assert (code, out) == (2, "") and "indices must be integers" in err

    @pytest.mark.parametrize("text", ['{"n": 8, "indices": [true, 3]}', '{"n": 8}', "[1, 2"])
    def test_support_file_reads_as_an_index_file(self, capsys, tmp_path, text):
        """`--support` is read by the index-set reader of `-I @file`, so a
        malformed one exits 2 with the message that `-I @file` gives."""
        samples_file = tmp_path / "samples.json"
        samples_file.write_text('{"n": 8, "indices": [0, 3], "values": [[1, 0], [0, 1]]}')
        path = tmp_path / "set.json"
        path.write_text(text)
        want = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert want[:2] == (2, "")
        assert run(capsys, "interpolate", "-N", "8", "--samples", str(samples_file),
                   "--support", str(path)) == want


def run_with_pair(capsys, tmp_path, command, pair):
    """`uncertainty --signal` or `interpolate --samples` on a file whose
    first value is the JSON text `pair`; the other values are valid."""
    path = tmp_path / "values.json"
    if command == "uncertainty":
        path.write_text('{"n": 8, "values": [%s%s]}' % (pair, ", [0, 0]" * 7))
        return run(capsys, "uncertainty", "-N", "8", "--signal", str(path))
    path.write_text('{"n": 8, "indices": [0, 3], "values": [%s, [1, 0]]}' % pair)
    support_file = tmp_path / "support.json"
    support_file.write_text('{"n": 8, "indices": [1, 2]}')
    return run(capsys, "interpolate", "-N", "8",
               "--samples", str(path), "--support", str(support_file))


@pytest.mark.parametrize("command,context", [
    ("uncertainty", "bad signal JSON (need 'n' and 'values')"),
    ("interpolate", "bad samples/support JSON"),
], ids=["signal", "samples"])
class TestValueContract:
    """Signal and sample values are [re, im] pairs of JSON numbers, read
    by one reader with one message for every malformed pair."""

    @pytest.mark.parametrize("pair", [
        '["1.5", 0]', "[true, 0]", "[1]", "[1, 0, 0]", "[1%s, 0]" % ("0" * 400),
    ], ids=["string", "bool", "one-element", "three-element", "past-float-range"])
    def test_malformed_pair(self, capsys, tmp_path, command, context, pair):
        message = f"error: {context}: values must be [re, im] pairs of JSON numbers\n"
        assert run_with_pair(capsys, tmp_path, command, pair) == (2, "", message)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite(self, capsys, tmp_path, command, context, bad):
        got = run_with_pair(capsys, tmp_path, command, f"[{bad}, 0]")
        assert got == (2, "", "error: values must be finite\n")


# Runs in a fresh interpreter where `import scipy` fails, writes the
# input files into the directory given as argv[1], runs one small valid
# call of every subcommand and prints the exit codes and the top-level
# modules that the import and the calls loaded.
_NUMPY_ONLY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
before = set(sys.modules)
import unisamp
from unisamp.cli import main

tmp = sys.argv[1]
with open(tmp + "/samples.json", "w") as fh:
    json.dump({"n": 8, "indices": [4, 0], "values": [[1, 0], [0, 1]]}, fh)
with open(tmp + "/support.json", "w") as fh:
    json.dump({"n": 8, "indices": [1, 2]}, fh)
with open(tmp + "/signal.json", "w") as fh:
    json.dump({"n": 8, "values": [[1, 0]] + [[0, 0]] * 7}, fh)
calls = [
    ["check", "-N", "8", "-I", "0,1,3,4,6"],
    ["maximal", "-N", "32", "-I", "0..4,6..10,12,14,15"],
    ["minimal", "-N", "9", "-I", "0,1,2,3,6"],
    ["construct", "-N", "16", "-I", "0..9", "--size", "5"],
    ["decompose", "-N", "8", "-I", "0,1,3,4,6"],
    ["count", "-p", "2", "-M", "3", "-d", "4"],
    ["entropy", "-p", "2", "-M", "3", "--resolution", "3"],
    ["bracelets", "-n", "6", "--count", "2"],
    ["oracle", "-N", "8", "-I", "0,1,3,4,6"],
    ["interpolate", "-N", "8", "--samples", tmp + "/samples.json",
     "--support", tmp + "/support.json"],
    ["condition", "-N", "16", "-J", "0,4,8,12"],
    ["uncertainty", "-N", "8", "--signal", tmp + "/signal.json"],
    ["rand-maximal", "-p", "3", "-M", "2", "-s", "9", "-d", "3",
     "--delta", "0.5", "--trials", "5", "--seed", "1"],
    ["rand-signal", "-p", "2", "-M", "6", "-r", "2", "--delta", "1.0",
     "--trials", "10", "--seed", "3"],
    ["sumset", "-N", "8", "-X", "0,1", "-Y", "0,4", "--check"],
]
codes = {}
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = main(argv)
loaded = sorted({name.split(".")[0] for name in set(sys.modules) - before})
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: each call in the script
    succeeds with `import scipy` failing, and nothing outside the
    standard library, numpy and unisamp loads. No command loads
    `dataclasses`, whose records compile generated code at import."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    usage = build_parser().format_usage()
    commands = re.search(r"\{(.+)\}", usage).group(1).split(",")
    assert len(commands) == 15
    assert report["codes"] == {cmd: 0 for cmd in commands}
    # numpy.random's compiled extensions register two Cython runtime modules
    allowed = set(sys.stdlib_module_names) | {"numpy", "unisamp", "cython_runtime"}
    assert [
        m for m in report["loaded"] if m not in allowed and not m.startswith("_cython_")
    ] == []
    assert "dataclasses" not in report["loaded"]


# Runs in a fresh interpreter where `import numpy` fails, calls the
# integer-only commands (one of them on an exit-2 path) and prints each
# call's exit code, stdout and stderr, and the numpy modules loaded.
_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import unisamp
from unisamp.cli import main

calls = [
    ["count", "-p", "2", "-M", "3", "-d", "4"],
    ["entropy", "-p", "2", "-M", "3", "--resolution", "3"],
    ["bracelets", "-n", "6", "--count", "2"],
    ["count", "-p", "2", "-M", "3", "-d", "99"],
]
report = []
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report.append([code, out.getvalue(), err.getvalue()])
numpy = sorted(m for m, mod in sys.modules.items()
               if m.split(".")[0] == "numpy" and mod is not None)
print(json.dumps({"calls": report, "numpy": numpy}))
"""


def test_integer_commands_run_without_numpy():
    """count, entropy and bracelets --count are integer arithmetic, so
    they, and their usage errors, run with `import numpy` failing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["calls"] == [
        [0, "16\n", ""],
        [0, "alpha,normalized_log_count,M,p\n0,0,3,2\n"
            "0.5,0.34657359028,3,2\n1,0,3,2\n", ""],
        [0, "3\n", ""],
        [2, "", "error: cardinality 99 outside [0:8]\n"],
    ]
    assert report["numpy"] == []


# The names `from unisamp import ...` resolved before the package
# loaded its modules lazily, by the module that exported them then.
_EXPORTS = {
    "index_core": [
        "BraceletClass", "IndexSet", "PrimePowerModulus", "ResidueHistogram",
        "bracelet_canonical", "bracelet_count", "chi_star", "dispersion",
        "residue_histogram",
    ],
    "universality": [
        "InfeasibleSizeError", "MaximalResult", "MinimalResult", "NotUniversalError",
        "SchurValuation", "UniversalDecomposition", "UniversalityVerdict",
        "decompose", "is_universal", "is_universal_via_chi_star",
        "is_universal_via_dispersion", "maximal_universal", "minimal_universal",
        "schur_valuation", "universal_subset_of_size",
    ],
    "counting": [
        "BasePExpansion", "base_p_expansion", "count_by_brute_force",
        "count_universal", "entropy_curve",
    ],
    "fourier": [
        "RankReport", "Signal", "SingularSystemError", "brute_force_universal",
        "condition_report", "dft_submatrix", "find_sampling_set", "interpolate",
        "is_invertible",
    ],
    "uncertainty": [
        "RandomExperimentSummary", "SupportProfile", "cauchy_davenport_check",
        "random_maximal_experiment", "random_signal_uncertainty", "sumset",
        "support_profile", "verify_uncertainty",
    ],
}


def test_public_names_resolve_lazily():
    names = sorted(name for names in _EXPORTS.values() for name in names)
    assert len(names) == 46
    assert sorted(unisamp.__all__) == names
    assert set(names) <= set(dir(unisamp))
    for module, exported in _EXPORTS.items():
        old_home = importlib.import_module(f"unisamp.{module}")
        for name in exported:
            obj = getattr(unisamp, name)
            assert obj is getattr(old_home, name), name
            assert obj is getattr(sys.modules[obj.__module__], name), name
    with pytest.raises(AttributeError):
        unisamp.no_such_name


_COMMANDS = re.search(r"\{(.+)\}", build_parser().format_usage()).group(1).split(",")
_PARSE_ERRORS = [["-h"], ["--help"], [], ["bogus"], ["-N", "8"]] + [
    [name, *tail] for name in _COMMANDS for tail in (
        ["--help"], ["-h"], [], ["--bogus"], ["-N", "x"], ["-N", "8", "-I", "0", "extra"],
        ["-N", "8", "-I", "0", "-d", "1", "--size", "1", "extra"],
    )
]


def _parse_outcome(parse, argv):
    """Exit code, stdout and stderr of a parse that ends the program."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_ERRORS, ids=" ".join)
def test_help_and_errors_match_the_full_parser(argv):
    """`main` declares only the called subcommand's arguments, and every
    help and error text equals the one of the parser of all 15."""
    want = _parse_outcome(build_parser().parse_args, argv)
    assert want[0] in (0, 2)
    assert _parse_outcome(main, argv) == want


def test_a_call_declares_only_its_own_subcommand():
    """The other subcommands are listed, so the top level reads the same,
    but declare no arguments and no handler."""
    assert len(_COMMANDS) == 15
    for name in _COMMANDS:
        parser = build_parser(name)
        assert parser.format_help() == build_parser().format_help()
        for other in set(_COMMANDS) - {name}:
            assert vars(parser.parse_args([other])) == {"command": other}
