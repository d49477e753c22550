"""Self-tests for the benchmark: python3 -m pytest perfbench -q

They run the real CLI at tiny sizes, check that inputs are reproducible
from the seed, that every reference check rejects a wrong answer, and
that the references themselves agree with brute force.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.set_int_max_str_digits(0)


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher() as lau:
        yield lau


def tiny_session(launcher, tmp_path, name, traced=False, seed=3):
    calls = run.setup(launcher, name, seed, tmp_path / name, tiny=True)
    return calls, run.run_session(launcher, calls, tmp_path / name / "s0", traced)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_passes_at_tiny_sizes(launcher, tmp_path, name):
    calls, session = tiny_session(launcher, tmp_path, name)
    assert len(session["records"]) == len(calls) > 0
    assert [r["failure"] for r in session["records"]] == [None] * len(calls)
    assert all(r["rss_mb"] > 0 and r["wall"] > 0 for r in session["records"])


def test_traced_session_matches_and_reports_layers(launcher, tmp_path):
    calls, session = tiny_session(launcher, tmp_path, "small-many", traced=True)
    assert [r["failure"] for r in session["records"]] == [None] * len(calls)
    layers = run.layer_metrics(session)
    assert set(layers) == set(run.PER_LAYER)
    for busy in ("universality.construct_s", "counting.count_s", "index_core.bracelet_s",
                 "uncertainty.experiment_s", "cli.parse_s"):
        assert layers[busy] > 0, busy
    assert layers["uncertainty.trials"] == (workloads.TINY["rand_maximal"][5]
                                           + workloads.TINY["rand_signal"][4])
    assert layers["fourier.interp_s"] == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    def files(seed, sub):
        workloads.build(name, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other


def cli(call) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "unisamp.cli", *call.argv], capture_output=True,
                          text=True, env=run.child_env(), cwd=run.ROOT, timeout=60)


def find(calls, prefix):
    return next(c for c in calls if c.label.startswith(prefix))


@pytest.fixture(scope="module")
def tiny_calls(tmp_path_factory):
    root = tmp_path_factory.mktemp("calls")
    return {name: workloads.build(name, 5, root / name, tiny=True) for name in workloads.WORKLOADS}


def accepts_then_rejects(call, mutate, stream="stdout"):
    done = cli(call)
    assert done.returncode == call.code
    assert call.check(done.stdout, done.stderr) is None
    if stream == "stdout":
        bad = call.check(mutate(done.stdout), done.stderr)
    else:
        bad = call.check(done.stdout, mutate(done.stderr))
    assert bad is not None


def flip_json(key):
    def mutate(text):
        obj = json.loads(text)
        obj[key] = not obj[key]
        return json.dumps(obj)

    return mutate


def test_flipped_verdict_is_rejected(tiny_calls):
    accepts_then_rejects(find(tiny_calls["residue-large"], "check"), flip_json("universal"))
    accepts_then_rejects(find(tiny_calls["analysis-dense"], "oracle"), flip_json("universal"))


def test_moved_witness_is_rejected(tiny_calls):
    call = find(tiny_calls["residue-large"], "decompose N=64 deep")

    def mutate(text):
        obj = json.loads(text)
        obj["witness"]["a"] += 1
        return json.dumps(obj)

    accepts_then_rejects(call, mutate, stream="stderr")


def test_perturbed_interpolant_is_rejected(tiny_calls):
    def mutate(text):
        obj = json.loads(text)
        obj["values"][0][0] += 1e-6 * max(abs(v) for pair in obj["values"] for v in pair)
        return json.dumps(obj)

    accepts_then_rejects(find(tiny_calls["analysis-dense"], "interpolate"), mutate)


def test_off_by_one_count_is_rejected(tiny_calls):
    accepts_then_rejects(find(tiny_calls["small-many"], "count"), lambda t: f"{int(t) + 1}\n")


def test_perturbed_entropy_is_rejected(tiny_calls):
    def mutate(text):
        lines = text.splitlines()
        alpha, value, m, p = lines[3].split(",")
        lines[3] = f"{alpha},{float(value) + 5e-12:.15g},{m},{p}"
        return "\n".join(lines) + "\n"

    accepts_then_rejects(find(tiny_calls["small-many"], "entropy"), mutate)


def test_changed_construction_is_rejected(tiny_calls):
    def swap_last(key):
        def mutate(text):
            obj = json.loads(text)
            obj[key][-1] -= 1
            return json.dumps(obj)

        return mutate

    accepts_then_rejects(find(tiny_calls["residue-large"], "maximal"), swap_last("example"))
    accepts_then_rejects(find(tiny_calls["residue-large"], "construct"), swap_last("indices"))
    accepts_then_rejects(find(tiny_calls["small-many"], "bracelets canonical"),
                         lambda t: t.replace('"orbit_size": ', '"orbit_size": 1'))


def test_changed_experiment_count_is_rejected(tiny_calls):
    def mutate(text):
        obj = json.loads(text)
        obj["successes"] -= 1
        return json.dumps(obj)

    accepts_then_rejects(find(tiny_calls["small-many"], "rand-maximal"), mutate)
    accepts_then_rejects(find(tiny_calls["small-many"], "rand-signal"), mutate)


def test_only_the_oversized_count_is_marked_as_known_defect(tmp_path):
    calls = workloads.build("small-many", 1, tmp_path)
    assert [c.label for c in calls if c.known_defect] == ["count N=65536 d=32767"]


def balanced(elems, p, m):
    return all(np.ptp(refs.level_counts(np.asarray(elems, dtype=np.int64), p, k)) <= 1
               for k in range(m + 1))


@pytest.mark.parametrize("p,m", [(2, 3), (2, 4), (3, 2)])
def test_count_reference_matches_enumeration(p, m):
    n = p ** m
    for d in range(n + 1):
        assert refs.count_universal(p, m, d) == sum(
            balanced(c, p, m) for c in combinations(range(n), d))
        if d:
            assert math.isclose(refs.log_count(p, m, d), math.log(refs.count_universal(p, m, d)),
                                rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("n,d", [(6, 3), (7, 3), (8, 4), (9, 4)])
def test_bracelet_reference_matches_orbits(n, d):
    orbits = {tuple(refs.bracelet_canonical(np.array(c), n)["canonical"])
              for c in combinations(range(n), d)}
    assert refs.bracelet_count(n, d) == len(orbits)


def test_samplers_hit_their_targets():
    rng = np.random.default_rng(0)
    for p, m in [(2, 10), (3, 6), (5, 4)]:
        for _ in range(5):
            d = int(rng.integers(1, p ** m))
            u = workloads.sample_universal(rng, p, m, d)
            assert len(u) == d and refs.is_universal(u, p, m)
            assert refs.maximal_output(u, p, m)["example"] == u.tolist()


@pytest.mark.parametrize("p,m", [(2, 16), (3, 12), (2, 8), (3, 3)])
def test_deep_witness_sits_at_a_fixed_scan_position(p, m):
    pl = p ** workloads.witness_level(m)
    positions = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = workloads.universal_size(rng, p, m)
        deep = workloads.deep_witness(rng, workloads.sample_universal(rng, p, m, d), p, m)
        witness = refs.verdict(deep, p, m)["witness"]
        assert len(deep) == d and witness["k"] == workloads.witness_level(m)
        positions.add(witness["a"])
    assert min(positions) >= pl // 16 and max(positions) < pl // 16 + 64


def test_affine_images_keep_oracle_verdicts(launcher, tmp_path):
    rng = np.random.default_rng(7)
    inputs = workloads.Inputs(tmp_path)
    for entry in json.loads(workloads.ORACLE_DIGESTS.read_text())["12"]:
        elems = workloads.affine_image(rng, entry["indices"], 12)
        assert len(set(elems.tolist())) == len(entry["indices"])
        arg = inputs.index_set("image", 12, elems)
        rec = launcher.run([sys.executable, "-m", "unisamp.cli", "oracle", "-N", "12", "-I", arg],
                           tmp_path / "out", tmp_path / "err")
        assert rec["code"] == 0
        assert json.loads((tmp_path / "out").read_text()) == {"universal": entry["universal"]}


def test_scale_uses_calibrations_on_both_sides():
    cals = [(0, 0.2), (2, 0.4), (3, 0.4), (5, 0.8)]
    assert run.scale(cals, 0) == run.REF_CAL_S / 0.4    # 0.2 | 0.4 0.4
    assert run.scale(cals, 2) == run.REF_CAL_S / 0.4    # 0.2 0.4 | 0.4 0.8
    assert run.scale(cals, 4) == run.REF_CAL_S / 0.4    # 0.4 0.4 | 0.8


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(1, 41)))
    assert (value, pct, beyond) == (30, 75, 10)
    assert run.tail([5.0, 1.0]) == (1.0, 50, 1)


def test_self_time_subtracts_children():
    trace = {"spans": [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0],
                       ["c", 2.0, 3.0, 1]]}
    assert run.self_times(trace) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.NOMINAL_SESSION_S) == set(workloads.WORKLOADS)
