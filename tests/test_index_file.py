"""`-I @file`: the array reader against the `json` parse it replaces,
the integer "n" of every JSON input, the chunked JSON writer against
`json.dumps`, and the memory of the large index-set and interpolation
paths."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from test_cli import _limited_peak
from unisamp import cli, index_core
from unisamp.base import JSON_CHUNK, json_chunks
from unisamp.cli import main, parse_index_set
from unisamp.fourier import Signal, interpolate
from unisamp.index_core import IndexSet, _plain_index_set

SRC = str(Path(__file__).resolve().parents[1] / "src")


def outcome(parse, path, n):
    """The set, or the exception's type and text."""
    try:
        return parse(path, n)
    except Exception as exc:  # the comparison is on any outcome
        return type(exc).__name__, str(exc)


def parse_as_pipe(path, n):
    """`-I @path` with the file read whole as bytes, as a pipe is."""
    with mock.patch.object(cli.stat, "S_ISREG", return_value=False):
        return parse_index_set(f"@{path}", n)


def assert_same_as_json_path(path, n):
    """The reader on the open file (in windows) and on its bytes."""
    got = outcome(lambda p, m: parse_index_set(f"@{p}", m), path, n)
    want = outcome(reference.parse_index_file, path, n)
    assert got == want
    assert outcome(parse_as_pipe, path, n) == want
    return got


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_SPACE = st.text(" \t\n\r", max_size=2)
_EXTRA = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10 ** 20), st.floats(allow_nan=False),
    st.text(max_size=6), st.lists(st.integers(0, 99), max_size=3),
)


@st.composite
def index_files(draw):
    """(bytes, n): a JSON object with "n", "indices" and other keys in any
    order, any JSON whitespace, and the indices in any order."""
    n = draw(st.integers(1, 4096))
    indices = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=64))
    array = "[" + ",".join(draw(_SPACE) + str(i) + draw(_SPACE) for i in indices)
    array += draw(_SPACE) + "]"
    fields = [("n", str(n)), ("indices", array)]
    keys = st.text(max_size=6).filter(lambda k: k not in ("n", "indices"))
    ascii_only = draw(st.booleans())
    for key, value in draw(st.dictionaries(keys, _EXTRA, max_size=3)).items():
        fields.append((key, json.dumps(value, ensure_ascii=ascii_only)))
    fields = draw(st.permutations(fields))
    body = ",".join(
        draw(_SPACE) + json.dumps(k, ensure_ascii=ascii_only) + draw(_SPACE) + ":"
        + draw(_SPACE) + v + draw(_SPACE)
        for k, v in fields
    )
    return ("{" + body + "}" + draw(_SPACE)).encode(), n


@settings(max_examples=300, deadline=None)
@given(index_files(), st.integers(0, 1))
def test_generated_files_match_json_path(tmp_path_factory, case, shift):
    raw, n = case
    path = tmp_path_factory.mktemp("f") / "set.json"
    path.write_bytes(raw)
    assert_same_as_json_path(path, n + shift)


_EDIT = st.sampled_from(
    list('0123456789,[]{}" \t\r\n-+.eE:\\') + ['"indices"', '"n"', "00", ",,", "true"])


@settings(max_examples=300, deadline=None)
@given(index_files(), st.lists(st.tuples(st.floats(0, 1), st.integers(0, 2), _EDIT),
                               min_size=1, max_size=3))
def test_edited_files_match_json_path(tmp_path_factory, case, edits):
    """One to three characters or tokens deleted (0), inserted (1) or
    replaced (2) anywhere in a generated file."""
    text, n = case[0].decode(), case[1]
    for where, op, piece in edits:
        i = int(where * len(text))
        text = text[:i] + (piece if op else "") + text[i + (op != 1):]
    path = tmp_path_factory.mktemp("f") / "set.json"
    path.write_bytes(text.encode())
    assert_same_as_json_path(path, n)


PLAIN_FILES = [
    IndexSet.of(1 << 12, range(0, 4096, 3)).dumps().encode(),
    b'{"indices": [5,\r\n\t3 , 0], "note": "x", "n": 8}\n',
    b'{"n": 8, "indices": [7], "x": {"k": [1, 2]}, "y": "index"}',
]


@pytest.mark.parametrize("raw", PLAIN_FILES, ids=["dumps", "crlf-key-order", "nested-extra"])
def test_plain_files_take_the_array_reader(tmp_path, raw):
    assert _plain_index_set(raw) is not None
    path = tmp_path / "set.json"
    path.write_bytes(raw)
    assert isinstance(assert_same_as_json_path(path, json.loads(raw)["n"]), IndexSet)


# Each file's text, parsed at N = 8: every input the reader must leave to
# the `json` path, and plain inputs whose set is refused.
MUTATIONS = [
    '{"n": 8, "indices": [0, 01, 3]}',
    '{"n": 8, "indices": [00]}',
    '{"n": 8, "indices": [1, , 05, 3]}',
    '{"n": 8, "indices": [1, -2]}',
    '{"n": 8, "indices": [-0, 1]}',
    '{"n": 8, "indices": [+1, 2]}',
    '{"n": 8, "indices": [1.0, 2]}',
    '{"n": 8, "indices": [1.5]}',
    '{"n": 8, "indices": [1e3]}',
    '{"n": 8, "indices": [1E0]}',
    '{"n": 8, "indices": [1, 2,]}',
    '{"n": 8, "indices": [1,, 2]}',
    '{"n": 8, "indices": [, 1]}',
    '{"n": 8, "indices": [1 2]}',
    '{"n": 9999, "indices": [381 3, 7]}',
    '{"n": 9999, "indices": [1\n2, 3]}',
    '{"n": 9999, "indices": [1 05, 3]}',
    '{"n": 8, "indices": [0x1]}',
    '{"n": 10000000000000000000, "indices": [9999999999999999999]}',
    '{"n": 100000000000000000000, "indices": [1000000000000000000]}',
    '{"n": 8, "indices": [99999999999999999999]}',
    '{"n": 8, "indices": [1], "indices": [2]}',
    '{"n": 8, "note": "\\"indices\\": [1]", "indices": [2]}',
    '{"n": 8, "note": "indices", "indices": [2]}',
    '{"n": 8, "x": {"indices": [1, 2]}}',
    '{"n": 8, "x": {"indices": [1, 2]}, "indices": [3]}',
    '{"n": 8, "ind\\u0069ces": [4], "x": {"indices": [1, 2]}}',
    '{"n": 8, "indices": [4], "ind\\u0069ces": [5]}',
    '{"n": 8, "ind\\u0069ces": [], "x": {"indices": [1, 2]}}',
    '{"n": 8, "indices": [4], "ind\\u0069ces": []}',
    '{"n": 8, "indices": [4], "indices": []}',
    '{"n": 8, "indices": [3, 1, 2]}',
    '{"n": 8, "indices": [3, 3]}',
    '{"n": 8, "indices": [8]}',
    '{"n": 8, "indices": [7, 9, 12]}',
    '{"n": 9, "indices": [1]}',
    '{"n": 8.0, "indices": [1]}',
    '{"n": 8.7, "indices": [1]}',
    '{"n": "8", "indices": [1]}',
    '{"n": true, "indices": [1]}',
    '{"n": null, "indices": [1]}',
    '{"n": NaN, "indices": [1]}',
    '{"n": 0, "indices": [1]}',
    '{"n": -8, "indices": [1]}',
    '{"indices": [1]}',
    '{"n": 8}',
    '{"n": 8, "indices": []}',
    '{"n": 8, "indices": [ ]}',
    '{"n": 8, "indices": [[1], 2]}',
    '{"n": 8, "indices": "1,2"}',
    '{"n": 8, "indices": [1, 2]',
    '{"n": 8, "indices": [1, 2]} {}',
    '{"n": 8,\r\n "indices": [1, 2],\r\n "x": tru}',
    '[{"n": 8, "indices": [1]}]',
    '{"n": 8, "indices": [1, 2], "x": [NaN]}',
    '',
    '\ufeff{"n": 8, "indices": [1]}',
]


@pytest.mark.parametrize("text", MUTATIONS)
def test_mutations_match_json_path(tmp_path, text):
    path = tmp_path / "set.json"
    path.write_bytes(text.encode())
    assert_same_as_json_path(path, 8)


def test_property_tests_in_small_windows(tmp_path_factory):
    """The property tests, the plain files and the mutations again, from
    the open file and from its bytes, with the array text read in
    windows of 5 bytes, so that most items open or close a window."""
    with mock.patch.object(index_core, "_WINDOW", 5):
        test_generated_files_match_json_path(tmp_path_factory)
        test_edited_files_match_json_path(tmp_path_factory)
        for raw in PLAIN_FILES:
            test_plain_files_take_the_array_reader(tmp_path_factory.mktemp("f"), raw)
        for text in MUTATIONS:
            test_mutations_match_json_path(tmp_path_factory.mktemp("f"), text)


@pytest.mark.parametrize("raw", [
    b'{"n": 8, "indices": [1], "x": "\xff"}',
    b'{"n": 8, "indices": [1\xc3]}',
    '{"n": 8, "indices": [1], "x": "é"}'.encode("utf-8"),
    '{"n": 8, "indices": [1]}'.encode("utf-16"),
])
def test_encodings_match_json_path(tmp_path, raw):
    path = tmp_path / "set.json"
    path.write_bytes(raw)
    assert_same_as_json_path(path, 8)


def test_missing_file_matches_json_path(tmp_path):
    assert_same_as_json_path(tmp_path / "absent.json", 8)


def test_bom_is_refused_as_before(capsys, tmp_path):
    path = tmp_path / "set.json"
    path.write_bytes(b'\xef\xbb\xbf{"n": 8, "indices": [0, 1, 3, 4, 6]}')
    code, out, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
    assert (code, out) == (2, "")
    assert "Unexpected UTF-8 BOM" in err


def test_piped_file_is_read_once(capsys):
    text = json.dumps({"n": 8, "indices": [6, 0, 1, 3, 4]})
    proc = subprocess.run(
        [sys.executable, "-m", "unisamp.cli", "check", "-N", "8", "-I", "@/dev/stdin"],
        input=text, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(
        capsys, "check", "-N", "8", "-I", "0,1,3,4,6")


def test_large_file_parse_peak(tmp_path):
    """2^19 indices at N = 2^20: no Python int per index and the file
    read in windows, so the parse peaks below 1.5 x the array's bytes
    (the `json` path reads 6.7, the whole file read at once 2.1)."""
    n, k = 1 << 20, 1 << 19
    indices = np.random.default_rng(3).choice(n, k, replace=False)
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"n": n, "indices": indices.tolist()}))
    del indices
    tracemalloc.start()
    try:
        iset = parse_index_set(f"@{path}", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(iset) == k
    assert peak < 1.5 * 8 * k


class TestIntegerN:
    """A file's "n" is a JSON integer: 8.7, "8", true and 8.0 are refused
    with exit 2, never truncated or coerced."""

    @pytest.mark.parametrize("n", [8.7, "8", True, 8.0])
    def test_index_file(self, capsys, tmp_path, n):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"n": n, "indices": [0, 1]}))
        code, out, err = run(capsys, "check", "-N", "8", "-I", f"@{path}")
        assert (code, out) == (2, "")
        assert f"'n' must be an integer, got {n!r}" in err

    def test_signal_file(self, capsys, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"n": 8.9, "values": [[1, 0]] + [[0, 0]] * 7}))
        code, out, err = run(capsys, "uncertainty", "-N", "8", "--signal", str(path))
        assert (code, out) == (2, "")
        assert "'n' must be an integer, got 8.9" in err

    def _interpolate(self, capsys, tmp_path, samples_n):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(
            {"n": samples_n, "indices": [0, 3], "values": [[1.0, 0.0], [0.0, 1.0]]}))
        support = tmp_path / "support.json"
        support.write_text(json.dumps({"n": 8, "indices": [1, 2]}))
        return run(capsys, "interpolate", "-N", "8",
                   "--samples", str(samples), "--support", str(support))

    def test_samples_file_n_is_checked(self, capsys, tmp_path):
        code, out, err = self._interpolate(capsys, tmp_path, 1024)
        assert (code, out) == (2, "")
        assert "inputs live in different groups: samples in Z_1024, support in Z_8, N in Z_8" in err

    def test_samples_file_n_is_an_integer(self, capsys, tmp_path):
        code, out, err = self._interpolate(capsys, tmp_path, 8.0)
        assert (code, out) == (2, "")
        assert "'n' must be an integer, got 8.0" in err


def test_range_to_2_24_bounded_rss():
    """`0..16777214` is one int64 arange, not a list of 2^24 Python ints,
    adopted by the set without a copy, and its one-row complement needs
    no row block, so the oracle call on it peaks under 300 MB."""
    proc, peak = _limited_peak("oracle", "-N", "16777216", "-I", "0..16777214")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '{"universal": true}\n'
    assert peak < 300 * 1024


def test_range_parse_adopts_its_arange():
    """A single a..b range becomes the set's own array: no concatenated
    or sorted copy, so the parse peaks under 1.5 x the array's bytes."""
    n = 1 << 20
    tracemalloc.start()
    try:
        iset = parse_index_set(f"0..{n - 2}", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(iset) == n - 1
    assert peak < 1.5 * iset.array.nbytes


def test_interpolate_peak_at_4096_512():
    """The d x d block is conjugated in place after the singular-value
    gate: the call's traced peak stays under 1.8 x the block's 16 d^2
    bytes (a conjugated copy reads 2.11)."""
    n, d = 4096, 512
    rng = np.random.default_rng(7)
    sample_set = IndexSet.of(n, np.arange(d) + d * rng.integers(0, n // d, d))
    support = IndexSet.of(n, rng.choice(n, d, replace=False))
    values = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    tracemalloc.start()
    try:
        interpolate(values, sample_set, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 16 * d * d


def tolisted(obj):
    """obj with every numpy array replaced by its `tolist()`."""
    if isinstance(obj, dict):
        return {k: tolisted(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [tolisted(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


_SPECIAL = np.array([-0.0, 5e-324, 1e308, -1e308, -5e-324])


@st.composite
def json_arrays(draw):
    """An int64 array or a float64 (n, 2) array of n rows, n at and next
    to the writer's chunk, with the extreme floats at random places."""
    n = draw(st.sampled_from([0, 1, JSON_CHUNK - 1, JSON_CHUNK, JSON_CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64) >> rng.integers(0, 63, n)
    arr = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    at = rng.choice(arr.size, min(arr.size, 5), replace=False)
    arr.flat[at] = _SPECIAL[:len(at)]
    return arr


_JSON = st.recursive(
    json_arrays() | st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(_JSON)
def test_writer_equals_json_dumps(obj):
    assert "".join(json_chunks(obj)) == json.dumps(tolisted(obj))


def test_writer_peak_is_a_chunk():
    """Writing the 2^20 indices of a set holds one chunk's Python ints
    and text at a time: under half the array's bytes traced (its list
    and `json.dumps` text hold about 7 times them)."""
    obj = IndexSet.full(1 << 20).to_json()
    want = len(json.dumps(tolisted(obj)))
    tracemalloc.start()
    try:
        size = sum(map(len, json_chunks(obj)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == want
    assert peak < obj["indices"].nbytes / 2


def test_dumps_and_to_json():
    """`to_json()` holds the arrays themselves; `dumps()` is the text of
    their lists."""
    iset = IndexSet.of(16, [9, 2, 5])
    assert iset.to_json()["indices"] is iset.array
    assert iset.dumps() == json.dumps({"n": 16, "indices": [2, 5, 9]})
    signal = Signal.of([1 + 2j, 0.5 - 1j])
    assert np.shares_memory(signal.to_json()["values"], signal.values)
    assert signal.dumps() == json.dumps({"n": 2, "values": [[1.0, 2.0], [0.5, -1.0]]})
