"""Seeded inputs and expected answers for the three workloads.

Each builder writes its input files into a directory and returns the
workload's fixed list of `Call`s: the arguments to `python -m
unisamp.cli`, the expected exit code, and a check of stdout/stderr
against the reference answer from `refs`. The program only ever sees
the generated files and the command line.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import refs

WORKLOADS = ("residue-large", "analysis-dense", "small-many")

# Verdicts of `oracle` at non-prime-power moduli, recorded from the
# program at the commit that introduced the benchmark (no combinatorial
# criterion exists there to recompute them).
ORACLE_DIGESTS = Path(__file__).with_name("oracle_digests.json")

INTERP_TOLERANCE = 1e-9
ENTROPY_TOLERANCE = 1e-12
FLOAT_RTOL = 1e-12

# residue-large plans: (command, input kinds) per modulus. Every command
# runs at the smallest modulus; the larger moduli keep the calls that fit
# one session of 20-32 s on 2 vCPUs, depending on the host's other load.
KINDS = ("half", "universal", "deep")
RESIDUE_ALL = [(cmd, KINDS) for cmd in ("check", "maximal", "minimal", "construct", "decompose")]
RESIDUE_MID = [("check", KINDS)]
RESIDUE_TOP = [("maximal", ("half",))]

# Problem sizes: the benchmark runs FULL; the self-tests run TINY.
FULL = {
    "residue": [(2, 16, RESIDUE_ALL), (3, 12, RESIDUE_MID), (2, 20, RESIDUE_TOP)],
    "interp": [(1024, 128)] * 6 + [(4096, 512)] * 2,
    "condition": [(4096, 512)] * 2,
    "oracle_n": 16,
    "oracle_sizes": (8, 8, 8, 8, 7, 7, 7, 7, 6, 6, 6, 6),
    "oracle_composite": 20,
    "small_moduli": [(2, 3), (3, 5), (2, 10)] * 2,
    "count_modulus": (2, 10),
    "count_ds": 6,
    "count_defect": (2, 16),
    "entropy": [(2, 20), (3, 12)],
    "entropy_points": 65,
    "bracelet_counts": [(24, 12), (31, 10), (64, 16)],
    "bracelet_canonical": (1024, 342),
    "rand_maximal": (3, 5, 230, 102, 0.5, 2000),
    "rand_signal": (2, 10, 4, 1.0, 1000),
    "uncertainty": [(2, 12)],
    "sumset": [(2, 10, 40, 60)],
}

TINY = {
    "residue": [(2, 6, RESIDUE_ALL), (3, 3, RESIDUE_MID), (2, 8, RESIDUE_TOP)],
    "interp": [(64, 8), (128, 16)],
    "condition": [(128, 16)],
    "oracle_n": 8,
    "oracle_sizes": (4, 3),
    "oracle_composite": 12,
    "small_moduli": [(2, 3), (3, 2)],
    "count_modulus": (2, 5),
    "count_ds": 2,
    "count_defect": (2, 4),
    "entropy": [(2, 5)],
    "entropy_points": 9,
    "bracelet_counts": [(8, 4)],
    "bracelet_canonical": (16, 5),
    "rand_maximal": (3, 3, 24, 8, 0.5, 20),
    "rand_signal": (2, 6, 2, 1.0, 20),
    "uncertainty": [(2, 5)],
    "sumset": [(2, 5, 4, 6)],
}


@dataclass
class Call:
    label: str
    argv: list
    code: int
    check: Callable[[str, str], Optional[str]]
    known_defect: Optional[str] = None


def _close(got, want) -> bool:
    if isinstance(want, bool) or want is None:
        return got is want
    if isinstance(want, float):
        return isinstance(got, (int, float)) and not isinstance(got, bool) and (
            got == want or abs(got - want) <= FLOAT_RTOL * abs(want)
        )
    if isinstance(want, int):
        return type(got) is int and got == want
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want)
        )
    return got == want


def _parse(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def expect_json(want) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        got, bad = _parse(out)
        if bad:
            return bad
        return None if _close(got, want) else "stdout differs from reference"

    return check


def expect_stderr_json(want) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        if out.strip():
            return "unexpected stdout"
        got, bad = _parse(err)
        if bad:
            return "stderr is not the verdict JSON"
        return None if _close(got, want) else "witness differs from reference"

    return check


def expect_text(want: str) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        return None if out == want else "stdout differs from reference"

    return check


def expect_interpolant(truth: np.ndarray) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        got, bad = _parse(out)
        if bad:
            return bad
        try:
            vals = np.asarray(got["values"], dtype=np.float64)
            sig = vals[:, 0] + 1j * vals[:, 1]
        except (KeyError, TypeError, ValueError, IndexError):
            return "malformed signal JSON"
        if got.get("n") != truth.size or sig.shape != truth.shape:
            return "signal length differs"
        rel = float(np.linalg.norm(sig - truth) / np.linalg.norm(truth))
        return None if rel <= INTERP_TOLERANCE else f"relative error {rel:.3e}"

    return check


def expect_entropy(p: int, m: int, rows: list) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != "alpha,normalized_log_count,M,p":
            return "missing CSV header"
        if len(lines) - 1 != len(rows):
            return "wrong number of rows"
        for line, (alpha, value) in zip(lines[1:], rows):
            parts = line.split(",")
            if len(parts) != 4 or parts[0] != alpha or parts[2:] != [str(m), str(p)]:
                return f"bad row {line!r}"
            try:
                got = float(parts[1])
            except ValueError:
                return f"bad value in {line!r}"
            if abs(got - value) > ENTROPY_TOLERANCE:
                return f"entropy at alpha={alpha} off by {abs(got - value):.3e}"
        return None

    return check


def expect_condition(want: dict) -> Callable:
    def check(out: str, err: str) -> Optional[str]:
        got, bad = _parse(out)
        if bad:
            return bad
        try:
            cond, bound = float(got["condition_number"]), float(got["lower_bound"])
        except (KeyError, TypeError, ValueError):
            return "malformed condition report"
        if abs(cond - want["condition_number"]) > 1e-6 * want["condition_number"]:
            return "condition number differs from reference"
        if abs(bound - want["lower_bound"]) > 1e-9 * want["lower_bound"]:
            return "lower bound differs from reference"
        return None

    return check


class Inputs:
    """Writes one workload's input files; the same seed gives the same bytes."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written = 0

    def write(self, stem: str, obj) -> str:
        path = self.dir / f"{self.written:03d}-{stem}.json"
        path.write_text(json.dumps(obj))
        self.written += 1
        return str(path)

    def index_set(self, stem: str, n: int, elems) -> str:
        return "@" + self.write(stem, {"n": n, "indices": np.asarray(elems).tolist()})


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, WORKLOADS.index(name)]))
    )


def random_subset(rng, n: int, size: int) -> np.ndarray:
    return np.sort(rng.choice(n, size, replace=False)).astype(np.int64)


def sample_universal(rng, p: int, m: int, d: int) -> np.ndarray:
    """Random universal d-subset of Z_{p^m}: walk the congruence tree and
    give each node's surplus to a random choice of its p children, so
    every level stays balanced."""
    counts = np.array([d], dtype=np.int64)
    for k in range(m):
        q_next = d // p ** (k + 1)
        need = counts - p * q_next
        order = rng.random((p ** k, p)).argsort(axis=1)
        surplus = np.empty((p ** k, p), dtype=np.int64)
        np.put_along_axis(surplus, order, np.arange(p) < need[:, None], axis=1)
        counts = (q_next + surplus).T.reshape(-1)
    return np.flatnonzero(counts).astype(np.int64)


def witness_level(m: int) -> int:
    return max(1, m - 3)


def universal_size(rng, p: int, m: int) -> int:
    """About N/2, chosen so that about half the classes one level above
    the witness level split evenly, which deep_witness needs."""
    pl, sibling = p ** witness_level(m), p ** (witness_level(m) - 1)
    return p ** m // 2 // pl * pl + sibling // 2 - int(rng.integers(0, max(1, sibling // 8)))


def deep_witness(rng, base: np.ndarray, p: int, m: int) -> np.ndarray:
    """Move one element of a universal set within its class mod
    p^(L-1), from an under-filled class a to an under-filled sibling, so
    levels below L stay balanced and class a, alone, falls two short at
    level L = witness_level(m).

    a is the first such class from p^L/16 on. The program finds its
    witness by a pairwise scan whose cost grows with a times p^L, so with
    a random a the cost of one call differs by orders of magnitude from
    seed to seed; a fixed position keeps it visible and seed-independent.
    """
    n, level = p ** m, witness_level(m)
    pl, sibling = p ** level, p ** (level - 1)
    counts = refs.level_counts(base, p, level)
    q = len(base) // pl
    members = np.zeros(n, dtype=bool)
    members[base] = True
    for a in range(pl // 16, pl):
        if counts[a] != q:
            continue
        for j in range(1, p):
            b = (a + j * sibling) % pl
            free = np.flatnonzero(~members[b::pl])
            if counts[b] == q and free.size:
                e = int(rng.choice(base[base % pl == a]))
                members[e], members[b + pl * int(rng.choice(free))] = False, True
                return np.flatnonzero(members).astype(np.int64)
    raise RuntimeError(f"no under-filled sibling pair at level {level}")


def _construct_size(rng, elems, p, m):
    """A target size the reference extracts successfully."""
    cap = refs.maximal_size(elems, p, m)
    for _ in range(64):
        size = int(rng.integers(max(1, cap // 2), cap + 1))
        code, want = refs.construct_output(elems, p, m, size)
        if code == 0:
            return size, want
    raise RuntimeError("no feasible construct size found")


def residue_large(rng, inputs: Inputs, sizes: dict) -> list:
    """The three kinds have about the same cardinality (N/2), so early
    exit (half: witness at level 1), full scans (universal) and late
    exits (deep) differ only in where the residue criterion decides."""
    refs_by_cmd = {
        "check": lambda e, p, m: (0, refs.check_output(e, p, m)),
        "maximal": lambda e, p, m: (0, refs.maximal_output(e, p, m)),
        "minimal": lambda e, p, m: (0, refs.minimal_output(e, p, m)),
        "decompose": refs.decompose_output,
    }
    calls = []
    for p, m, plan in sizes["residue"]:
        n = p ** m
        universal = sample_universal(rng, p, m, universal_size(rng, p, m))
        kinds = {
            "half": random_subset(rng, n, n // 2),
            "universal": universal,
            "deep": deep_witness(rng, universal, p, m),
        }
        used = {kind for _, wanted in plan for kind in wanted}
        args = {k: inputs.index_set(f"N{n}-{k}", n, e) for k, e in kinds.items() if k in used}
        for cmd, wanted in plan:
            for kind in wanted:
                elems, argv = kinds[kind], [cmd, "-N", str(n), "-I", args[kind]]
                if cmd == "construct":
                    size, want = _construct_size(rng, elems, p, m)
                    code, argv = 0, argv + ["--size", str(size)]
                else:
                    code, want = refs_by_cmd[cmd](elems, p, m)
                check = expect_json(want) if code == 0 else expect_stderr_json(want)
                calls.append(Call(f"{cmd} N={n} {kind}", argv, code, check))
    return calls


def _interp_case(rng, inputs: Inputs, n: int, d: int):
    """Spread universal samples (one per class mod d, randomly lifted),
    a random support, and a random bandlimited ground truth."""
    samples = np.arange(d) + d * rng.integers(0, n // d, d)
    support = random_subset(rng, n, d)
    coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    truth = refs.bandlimited_signal(coeffs, support, n)
    order = np.argsort(samples)
    values = [[float(v.real), float(v.imag)] for v in truth[samples[order]]]
    s_path = inputs.write(f"interp-N{n}-samples",
                          {"n": n, "indices": samples[order].tolist(), "values": values})
    j_path = inputs.write(f"interp-N{n}-support", {"n": n, "indices": support.tolist()})
    return Call(f"interpolate N={n} d={d}",
                ["interpolate", "-N", str(n), "--samples", s_path, "--support", j_path],
                0, expect_interpolant(truth))


def analysis_dense(rng, inputs: Inputs, sizes: dict) -> list:
    calls = [_interp_case(rng, inputs, n, d) for n, d in sizes["interp"]]
    for n, d in sizes["condition"]:
        support = np.arange(d) * (n // d) + rng.integers(0, n // d, d)
        calls.append(Call(f"condition N={n} d={d}",
                          ["condition", "-N", str(n), "-J", inputs.index_set("condition", n, support)],
                          0, expect_condition(refs.condition_output(support, n))))
    n = sizes["oracle_n"]
    p, m = 2, n.bit_length() - 1
    for i, d in enumerate(sizes["oracle_sizes"]):
        elems = sample_universal(rng, p, m, d) if i % 2 == 0 else random_subset(rng, n, d)
        calls.append(Call(f"oracle N={n} d={d}",
                          ["oracle", "-N", str(n), "-I", inputs.index_set(f"oracle-{i}", n, elems)],
                          0, expect_json({"universal": refs.is_universal(elems, p, m)})))
    n = sizes["oracle_composite"]
    table = json.loads(ORACLE_DIGESTS.read_text())[str(n)]
    # Only universal sets: their verdict needs every column set, so the
    # call costs the same for every seed, while a non-universal set stops
    # at its first singular column set, wherever that falls.
    universal = [e for e in table if e["universal"]]
    entry = universal[int(rng.integers(0, len(universal)))]
    elems = affine_image(rng, entry["indices"], n)
    calls.append(Call(f"oracle N={n} d={len(elems)}",
                      ["oracle", "-N", str(n), "-I", inputs.index_set("oracle-composite", n, elems)],
                      0, expect_json({"universal": entry["universal"]})))
    return calls


def affine_image(rng, elems, n: int) -> np.ndarray:
    """u*x + t mod n for a random unit u and shift t. Rows uI against
    columns K give the DFT submatrix of rows I against columns uK, and a
    shift multiplies rows by unit phases, so the oracle's verdict holds."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    u, t = units[int(rng.integers(0, len(units)))], int(rng.integers(0, n))
    return np.sort((u * np.asarray(elems) + t) % n)


def small_many(rng, inputs: Inputs, sizes: dict) -> list:
    calls = []
    for p, m in sizes["small_moduli"]:
        n = p ** m
        elems = random_subset(rng, n, int(rng.integers(1, n)))
        arg = inputs.index_set(f"check-N{n}", n, elems)
        calls.append(Call(f"check N={n}", ["check", "-N", str(n), "-I", arg], 0,
                          expect_json(refs.check_output(elems, p, m))))
        elems = random_subset(rng, n, int(rng.integers(1, n)))
        arg = inputs.index_set(f"maximal-N{n}", n, elems)
        calls.append(Call(f"maximal N={n}", ["maximal", "-N", str(n), "-I", arg], 0,
                          expect_json(refs.maximal_output(elems, p, m))))
        elems = sample_universal(rng, p, m, int(rng.integers(1, n)))
        arg = inputs.index_set(f"decompose-N{n}", n, elems)
        calls.append(Call(f"decompose N={n}", ["decompose", "-N", str(n), "-I", arg], 0,
                          expect_json(refs.decompose_output(elems, p, m)[1])))
    p, m = sizes["count_modulus"]
    for d in sorted(rng.choice(p ** m + 1, sizes["count_ds"], replace=False)):
        calls.append(Call(f"count N={p ** m} d={d}",
                          ["count", "-p", str(p), "-M", str(m), "-d", str(d)], 0,
                          expect_text(f"{refs.count_universal(p, m, int(d))}\n")))
    sys.set_int_max_str_digits(0)  # the reference prints counts past the default limit
    p, m = sizes["count_defect"]
    d = p ** m // 2 - 1
    count = refs.count_universal(p, m, d)
    calls.append(Call(f"count N={p ** m} d={d}", ["count", "-p", str(p), "-M", str(m), "-d", str(d)],
                      0, expect_text(f"{count}\n"),
                      known_defect="decimal result exceeds the int->str digit limit"
                      if math.log10(count) >= 4300 else None))
    for p, m in sizes["entropy"]:
        res = sizes["entropy_points"]
        calls.append(Call(f"entropy p={p} M={m}",
                          ["entropy", "-p", str(p), "-M", str(m), "--resolution", str(res)], 0,
                          expect_entropy(p, m, refs.entropy_rows(p, m, res))))
    for n, d in sizes["bracelet_counts"]:
        calls.append(Call(f"bracelets n={n} d={d}",
                          ["bracelets", "-n", str(n), "--count", str(d)], 0,
                          expect_text(f"{refs.bracelet_count(n, d)}\n")))
    n, d = sizes["bracelet_canonical"]
    elems = random_subset(rng, n, d)
    calls.append(Call(f"bracelets canonical n={n}",
                      ["bracelets", "-n", str(n), "--canonical", inputs.index_set("bracelet", n, elems)],
                      0, expect_json(refs.bracelet_canonical(elems, n))))
    p, m, s, d, delta, trials = sizes["rand_maximal"]
    seed = int(rng.integers(0, 2 ** 31))
    code, want = refs.rand_maximal_output(p, m, s, d, delta, trials, seed)
    calls.append(Call(f"rand-maximal N={p ** m}",
                      ["rand-maximal", "-p", str(p), "-M", str(m), "-s", str(s), "-d", str(d),
                       "--delta", str(delta), "--trials", str(trials), "--seed", str(seed)],
                      code, expect_json(want)))
    p, m, r, delta, trials = sizes["rand_signal"]
    seed = int(rng.integers(0, 2 ** 31))
    code, want = refs.rand_signal_output(p, m, r, delta, trials, seed)
    calls.append(Call(f"rand-signal N={p ** m}",
                      ["rand-signal", "-p", str(p), "-M", str(m), "-r", str(r),
                       "--delta", str(delta), "--trials", str(trials), "--seed", str(seed)],
                      code, expect_json(want)))
    for p, m in sizes["uncertainty"]:
        n = p ** m
        step = p ** int(rng.integers(2, m - 1))
        offset = int(rng.integers(0, step))
        signal = [[1.0, 0.0] if i % step == offset else [0.0, 0.0] for i in range(n)]
        code, want = refs.comb_uncertainty_output(n, p, m, offset, step)
        calls.append(Call(f"uncertainty N={n} comb step={step}",
                          ["uncertainty", "-N", str(n), "--signal",
                           inputs.write("comb", {"n": n, "values": signal})],
                          code, expect_json(want)))
    for p, m, sx, sy in sizes["sumset"]:
        n = p ** m
        x = random_subset(rng, n, sx)
        y = sample_universal(rng, p, m, sy)
        code, want = refs.sumset_output(x, y, p, m)
        calls.append(Call(f"sumset N={n}",
                          ["sumset", "-N", str(n), "-X", inputs.index_set("sumset-x", n, x),
                           "-Y", inputs.index_set("sumset-y", n, y), "--check"],
                          code, expect_json(want)))
    return calls


BUILDERS = {
    "residue-large": residue_large,
    "analysis-dense": analysis_dense,
    "small-many": small_many,
}


def build(name: str, seed: int, directory: Path, tiny: bool = False) -> list:
    """Write the inputs for one workload and return its calls in order."""
    return BUILDERS[name](workload_rng(name, seed), Inputs(directory), TINY if tiny else FULL)
