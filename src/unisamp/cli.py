"""Command-line front end.

Each subcommand has one handler, `_<name>(args) -> int`, attached where
its subparser is declared; `main` alone maps exceptions to exit codes.
Exit codes: 0 success, 1 failed mathematical check (a verdict that
contradicts --expect, a violated bound, a non-universal set to
decompose, an infeasible size, a singular interpolation system),
2 usage error (bad arguments, malformed JSON, wrong modulus class) or a
request that runs out of memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys

# Only the numpy-free modules load here; each handler that needs numpy
# imports its library names when it runs.
from .base import (
    InfeasibleSizeError, NotUniversalError, PrimePowerModulus, SingularSystemError,
    file_text, json_chunks, json_int,
)
from .counting import (
    bracelet_count, count_by_brute_force, count_universal, entropy_curve
)


def parse_indices(text: str) -> np.ndarray:
    """Comma-separated indices with inclusive a..b range shorthand, as a
    new int64 array in the order written: one arange per item, joined
    unless there is only one."""
    import numpy as np

    pieces = [np.empty(0, dtype=np.int64)]
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_s, dots, hi_s = part.partition("..")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dots else lo
        except ValueError:
            raise ValueError(f"bad range {part!r}: endpoints must be integers" if dots
                             else f"bad index {part!r}: not an integer")
        if hi < lo:
            raise ValueError(f"bad range {part!r}: end below start")
        try:
            pieces.append(np.arange(lo, hi + 1, dtype=np.int64))
        except OverflowError as exc:  # the message IndexSet gives a list of such ints
            raise ValueError(f"indices must be integers: {exc}") from None
    return pieces[1] if len(pieces) == 2 else np.concatenate(pieces)


def parse_index_set(text: str, n: int) -> IndexSet:
    """Inline comma list / ranges, or @file holding index-set JSON."""
    from .index_core import IndexSet

    if text.startswith("@"):
        iset = _load_json(text[1:], IndexSet.loads)
        if iset.n != n:
            raise ValueError(f"file declares n={iset.n}, command line says N={n}")
        return iset
    return IndexSet._own(n, parse_indices(text))


def _load_json(path: str, loads=None):
    """A file parsed by `loads`, by default `json.loads` of its text. A
    regular file goes to `loads` open, to be read in windows; any other
    (a pipe) is read once as bytes."""
    try:
        with open(path, "rb") as fh:
            regular = loads and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            raw = fh if regular else fh.read()
            return loads(raw) if loads else json.loads(file_text(raw))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")


def _emit(obj, file=None) -> None:
    """Print obj as one JSON line, arrays written in pieces by `json_chunks`."""
    (file or sys.stdout).writelines(json_chunks(obj))
    print(file=file)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand's parser, or, given `only`, its parser alone among
    the listed names: every usage, help and error text stays the same."""
    parser = argparse.ArgumentParser(
        prog="unisamp",
        description="Universal sampling sets on Z_N for prime-power N: "
        "verdicts, constructions, counts, interpolation, uncertainty bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument("-N", type=int, help="ambient size")
    modulus.add_argument("-p", type=int, help="prime base (alternative to -N)")
    modulus.add_argument("-M", type=int, help="exponent, with -p")

    def command(name, run, help, *parents):
        if only in (None, name):
            s = subs.add_parser(name, help=help, parents=parents)
            s.set_defaults(run=run)
            return s
        subs.add_parser(name, help=help, add_help=False)  # listed, declaring nothing

    for name, run, help in (
        ("check", _check, "universality verdict, all criteria"),
        ("maximal", _maximal, "largest universal subset"),
        ("minimal", _minimal, "smallest universal superset"),
        ("construct", _construct, "universal subset of a given size"),
        ("decompose", _decompose, "split into elementary pieces"),
    ):
        if s := command(name, run, help, modulus):
            s.add_argument("-I", required=True, help="index set (list, a..b, or @file)")
            if name == "check":
                s.add_argument("--expect", choices=["universal", "not-universal"])
            elif name == "construct":
                s.add_argument("--size", type=int, required=True)

    if s := command("count", _count, "number of universal sets of size d", modulus):
        s.add_argument("-d", type=int, required=True)
        s.add_argument("--brute", action="store_true", help="enumerate instead")

    if s := command("entropy", _entropy, "normalized log-count curve as CSV"):
        s.add_argument("-p", type=int, required=True)
        s.add_argument("-M", type=int, required=True)
        s.add_argument("--resolution", type=int, required=True)

    if s := command("bracelets", _bracelets, "rotation/reflection classes"):
        s.add_argument("-n", type=int, required=True)
        g = s.add_mutually_exclusive_group(required=True)
        g.add_argument("--count", type=int, metavar="D", help="class count at size D")
        g.add_argument("--canonical", metavar="I", help="canonical form of a set")

    if s := command("oracle", _oracle, "brute-force universality over submatrices"):
        s.add_argument("-N", type=int, required=True)
        s.add_argument("-I", required=True)

    if s := command("interpolate", _interpolate, "reconstruct a bandlimited signal"):
        s.add_argument("-N", type=int, required=True)
        s.add_argument("--samples", required=True, help="JSON: n, indices, values")
        s.add_argument("--support", required=True, help="JSON index set file")

    if s := command("condition", _condition, "conditioning of block sampling"):
        s.add_argument("-N", type=int, required=True)
        s.add_argument("-J", required=True, help="spectral support")

    if s := command("uncertainty", _uncertainty, "support-size inequality report", modulus):
        s.add_argument("--signal", required=True, help="JSON signal file")

    if s := command("rand-maximal", _rand_maximal, "random-subset experiment", modulus):
        s.add_argument("-s", type=int, required=True, help="subset size drawn")
        s.add_argument("-d", type=int, required=True, help="target universal size")
        s.add_argument("--delta", type=float, required=True)
        s.add_argument("--trials", type=int, required=True)
        s.add_argument("--seed", type=int, required=True)

    if s := command("rand-signal", _rand_signal, "random sparse-signal experiment", modulus):
        s.add_argument("-r", type=int, required=True, help="support size")
        s.add_argument("--delta", type=float, required=True)
        s.add_argument("--trials", type=int, required=True)
        s.add_argument("--seed", type=int, required=True)

    if s := command("sumset", _sumset, "pairwise sums mod N", modulus):
        s.add_argument("-X", required=True)
        s.add_argument("-Y", required=True)
        s.add_argument("--check", action="store_true", help="evaluate lower bounds")

    return parser


def _require_n(args) -> int:
    if args.N is not None:
        if args.p is not None or args.M is not None:
            raise ValueError("specify -N, or -p with -M, not both")
        return args.N
    if args.p is not None:
        return args.p ** (args.M if args.M is not None else 1)
    raise ValueError("specify -N, or -p with -M")


def _modulus(args) -> tuple[int, PrimePowerModulus]:
    """N, from -N or as p^M, and its factorization."""
    n = _require_n(args)
    return n, PrimePowerModulus.from_n(n)


def _residue_input(args) -> tuple[IndexSet, PrimePowerModulus]:
    """The -I index set and the modulus it lives under."""
    n, modulus = _modulus(args)
    return parse_index_set(args.I, n), modulus


def _check(args) -> int:
    from .universality import (
        is_universal, is_universal_via_chi_star, is_universal_via_dispersion,
        schur_valuation,
    )

    iset, modulus = _residue_input(args)
    verdict = is_universal(iset, modulus)
    out = verdict.to_json()
    out["criteria_agree"] = (
        verdict.is_universal
        == is_universal_via_chi_star(iset, modulus)
        == is_universal_via_dispersion(iset, modulus)
    )
    if len(iset) >= 1:
        out["valuation_coprime"] = schur_valuation(iset, modulus).coprime
    _emit(out)
    if args.expect:
        wanted = args.expect == "universal"
        return 0 if verdict.is_universal == wanted else 1
    return 0


def _maximal(args) -> int:
    from .universality import maximal_universal

    result = maximal_universal(*_residue_input(args))
    _emit({"size": result.size, "example": result.example.array,
           **result.decomposition.to_json()})
    return 0


def _minimal(args) -> int:
    from .universality import minimal_universal

    result = minimal_universal(*_residue_input(args))
    _emit({"size": result.size, "example": result.example.array})
    return 0


def _construct(args) -> int:
    from .universality import universal_subset_of_size

    result = universal_subset_of_size(*_residue_input(args), args.size)
    _emit(result.to_json())
    return 0


def _decompose(args) -> int:
    from .universality import decompose

    decomposition = decompose(*_residue_input(args))
    _emit(decomposition.to_json())
    return 0


def _count(args) -> int:
    _, modulus = _modulus(args)
    count = (count_by_brute_force if args.brute else count_universal)(args.d, modulus)
    # exact counts run to a million digits, past the interpreter's
    # default int->str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def _entropy(args) -> int:
    rows = entropy_curve(args.p, args.M, args.resolution)
    print("alpha,normalized_log_count,M,p")
    for alpha, value in rows:
        print(f"{alpha:.10g},{value:.12g},{args.M},{args.p}")
    return 0


def _bracelets(args) -> int:
    if args.count is not None:
        print(bracelet_count(args.n, args.count))
    else:
        from .index_core import bracelet_canonical

        iset = parse_index_set(args.canonical, args.n)
        cls = bracelet_canonical(iset)
        _emit({"canonical": cls.canonical.array, "orbit_size": cls.orbit_size})
    return 0


def _oracle(args) -> int:
    from .fourier import brute_force_universal

    iset = parse_index_set(args.I, args.N)
    _emit({"universal": brute_force_universal(iset, args.N)})
    return 0


def _interpolate(args) -> int:
    import numpy as np

    from .fourier import complex_values, interpolate
    from .index_core import IndexSet

    samples_obj = _load_json(args.samples)
    support_obj = _load_json(args.support)
    try:
        samples_n = json_int(samples_obj, "n")
        indices = samples_obj["indices"]
        sample_set = IndexSet.of(args.N, indices)
        values = complex_values(samples_obj["values"])
        support = IndexSet.from_json(support_obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad samples/support JSON: {exc}")
    if len(values) != len(indices):
        raise ValueError(f"{len(indices)} sample indices but {len(values)} values")
    # interpolate takes the values in increasing index order
    values = values[np.argsort(indices)]
    for name, declared in (("samples", samples_n), ("support", support.n)):
        if declared != args.N:
            raise ValueError(
                f"{name} file declares n={declared}, command line says N={args.N}"
            )
    signal = interpolate(values, sample_set, support, args.N)
    _emit(signal.to_json())
    return 0


def _condition(args) -> int:
    from .fourier import condition_report

    report = condition_report(parse_index_set(args.J, args.N), args.N)
    _emit(vars(report))
    return 0


def _uncertainty(args) -> int:
    from .fourier import Signal
    from .uncertainty import verify_uncertainty

    _, modulus = _modulus(args)
    signal = Signal.from_json(_load_json(args.signal))
    report = verify_uncertainty(signal, modulus)
    _emit(report.to_json())
    return 0 if report.all_pass else 1


def _rand_maximal(args) -> int:
    from .uncertainty import random_maximal_experiment

    _, modulus = _modulus(args)
    summary = random_maximal_experiment(
        modulus, args.s, args.d, args.delta, args.trials, args.seed
    )
    _emit(summary.to_json())
    return 0 if summary.within_bound else 1


def _rand_signal(args) -> int:
    from .uncertainty import random_signal_uncertainty

    _, modulus = _modulus(args)
    summary = random_signal_uncertainty(
        modulus, args.r, args.delta, args.trials, args.seed
    )
    _emit(summary.to_json())
    return 0 if summary.within_bound else 1


def _sumset(args) -> int:
    from .uncertainty import cauchy_davenport_check, sumset

    n = _require_n(args)
    x = parse_index_set(args.X, n)
    y = parse_index_set(args.Y, n)
    total = sumset(x, y)
    out: dict = {"sumset": total.array}
    code = 0
    if args.check:
        modulus = PrimePowerModulus.from_n(n)
        report = cauchy_davenport_check(x, y, total, modulus)
        out["check"] = report.to_json()
        if not report.omega_pass or report.direct_pass is False:
            code = 1
    _emit(out)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # the three failed constructions are ValueErrors, so they go first
    try:
        return args.run(args)
    except NotUniversalError as exc:
        _emit(exc.verdict.to_json(), sys.stderr)
        return 1
    except (InfeasibleSizeError, SingularSystemError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        # usage errors, domain preconditions and requests past memory
        print("error:", str(exc) or type(exc).__name__, file=sys.stderr)
        return 2


def run() -> None:
    """Process entry: `python -m unisamp.cli` and the `unisamp` script."""
    # The process is one-shot: numpy's import leaves ~10^5 objects that
    # every full collection, and the final one at exit, would traverse,
    # and nothing here builds cycles in bulk. `main` keeps the collector.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
