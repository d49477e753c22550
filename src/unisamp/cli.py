"""Command-line front end.

Exit codes: 0 success, 1 failed mathematical check (a verdict that
contradicts --expect, an infeasible construction, a violated bound),
2 usage error (bad arguments, malformed JSON, wrong modulus class).
"""

from __future__ import annotations

import argparse
import json
import sys

from .index_core import (
    IndexSet,
    PrimePowerModulus,
    bracelet_canonical,
    bracelet_count,
)
from .universality import (
    InfeasibleSizeError,
    NotUniversalError,
    decompose,
    is_universal,
    is_universal_via_chi_star,
    is_universal_via_dispersion,
    maximal_universal,
    minimal_universal,
    schur_valuation,
    universal_subset_of_size,
)
from .counting import count_by_brute_force, count_universal, entropy_curve
from .fourier import (
    Signal,
    SingularSystemError,
    brute_force_universal,
    condition_report,
    interpolate,
)
from .uncertainty import (
    cauchy_davenport_check,
    random_maximal_experiment,
    random_signal_uncertainty,
    sumset,
    verify_uncertainty,
)


class UsageError(ValueError):
    pass


def parse_indices(text: str) -> list[int]:
    """Comma-separated indices with inclusive a..b range shorthand."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise UsageError(f"bad range {part!r}: endpoints must be integers")
            if hi < lo:
                raise UsageError(f"bad range {part!r}: end below start")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise UsageError(f"bad index {part!r}: not an integer")
    return out


def parse_index_set(text: str, n: int) -> IndexSet:
    """Inline comma list / ranges, or @file holding index-set JSON."""
    if text.startswith("@"):
        obj = _load_json(text[1:])
        try:
            iset = IndexSet.from_json(obj)
        except ValueError as exc:
            raise UsageError(str(exc))
        if iset.n != n:
            raise UsageError(f"file declares n={iset.n}, command line says N={n}")
        return iset
    try:
        return IndexSet.of(n, parse_indices(text))
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def _emit(obj) -> None:
    print(json.dumps(obj))


def _add_modulus_args(sub) -> None:
    sub.add_argument("-N", type=int, help="ambient size")
    sub.add_argument("-p", type=int, help="prime base (alternative to -N)")
    sub.add_argument("-M", type=int, help="exponent, with -p")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unisamp",
        description="Universal sampling sets on Z_N for prime-power N: "
        "verdicts, constructions, counts, interpolation, uncertainty bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check", help="universality verdict, all criteria")
    _add_modulus_args(s)
    s.add_argument("-I", required=True, help="index set (list, a..b, or @file)")
    s.add_argument("--expect", choices=["universal", "not-universal"])

    s = subs.add_parser("maximal", help="largest universal subset")
    _add_modulus_args(s)
    s.add_argument("-I", required=True)

    s = subs.add_parser("minimal", help="smallest universal superset")
    _add_modulus_args(s)
    s.add_argument("-I", required=True)

    s = subs.add_parser("construct", help="universal subset of a given size")
    _add_modulus_args(s)
    s.add_argument("-I", required=True)
    s.add_argument("--size", type=int, required=True)

    s = subs.add_parser("decompose", help="split into elementary pieces")
    _add_modulus_args(s)
    s.add_argument("-I", required=True)

    s = subs.add_parser("count", help="number of universal sets of size d")
    _add_modulus_args(s)
    s.add_argument("-d", type=int, required=True)
    s.add_argument("--brute", action="store_true", help="enumerate instead")

    s = subs.add_parser("entropy", help="normalized log-count curve as CSV")
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-M", type=int, required=True)
    s.add_argument("--resolution", type=int, required=True)

    s = subs.add_parser("bracelets", help="rotation/reflection classes")
    s.add_argument("-n", type=int, required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", type=int, metavar="D", help="class count at size D")
    g.add_argument("--canonical", metavar="I", help="canonical form of a set")

    s = subs.add_parser("oracle", help="brute-force universality over submatrices")
    s.add_argument("-N", type=int, required=True)
    s.add_argument("-I", required=True)
    s.add_argument("--tolerance", type=float, default=1e-10)

    s = subs.add_parser("interpolate", help="reconstruct a bandlimited signal")
    s.add_argument("-N", type=int, required=True)
    s.add_argument("--samples", required=True, help="JSON: n, indices, values")
    s.add_argument("--support", required=True, help="JSON index set file")

    s = subs.add_parser("condition", help="conditioning of block sampling")
    s.add_argument("-N", type=int, required=True)
    s.add_argument("-J", required=True, help="spectral support")

    s = subs.add_parser("uncertainty", help="support-size inequality report")
    _add_modulus_args(s)
    s.add_argument("--signal", required=True, help="JSON signal file")

    s = subs.add_parser("rand-maximal", help="random-subset experiment")
    _add_modulus_args(s)
    s.add_argument("-s", type=int, required=True, help="subset size drawn")
    s.add_argument("-d", type=int, required=True, help="target universal size")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)

    s = subs.add_parser("rand-signal", help="random sparse-signal experiment")
    _add_modulus_args(s)
    s.add_argument("-r", type=int, required=True, help="support size")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)

    s = subs.add_parser("sumset", help="pairwise sums mod N")
    _add_modulus_args(s)
    s.add_argument("-X", required=True)
    s.add_argument("-Y", required=True)
    s.add_argument("--check", action="store_true", help="evaluate lower bounds")

    return parser


def _require_n(args) -> int:
    if args.N is not None:
        return args.N
    if args.p is not None:
        return args.p ** (args.M if args.M is not None else 1)
    raise UsageError("specify -N, or -p with -M")


def _modulus(args) -> tuple[int, PrimePowerModulus]:
    """N, from -N or as p^M, and its factorization."""
    n = _require_n(args)
    return n, PrimePowerModulus.from_n(n)


def _residue_input(args) -> tuple[IndexSet, PrimePowerModulus]:
    """The -I index set and the modulus it lives under."""
    n, modulus = _modulus(args)
    return parse_index_set(args.I, n), modulus


def _run(args) -> int:
    cmd = args.command

    if cmd == "check":
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

    if cmd == "maximal":
        result = maximal_universal(*_residue_input(args))
        _emit(
            {
                "size": result.size,
                "example": result.example.array.tolist(),
                **result.decomposition.to_json(),
            }
        )
        return 0

    if cmd == "minimal":
        result = minimal_universal(*_residue_input(args))
        _emit({"size": result.size, "example": result.example.array.tolist()})
        return 0

    if cmd == "construct":
        try:
            result = universal_subset_of_size(*_residue_input(args), args.size)
        except InfeasibleSizeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        _emit(result.to_json())
        return 0

    if cmd == "decompose":
        try:
            decomposition = decompose(*_residue_input(args))
        except NotUniversalError as exc:
            print(json.dumps(exc.verdict.to_json()), file=sys.stderr)
            return 1
        _emit(decomposition.to_json())
        return 0

    if cmd == "count":
        _, modulus = _modulus(args)
        if args.brute:
            count = count_by_brute_force(args.d, modulus)
        else:
            count = count_universal(args.d, modulus)
        # exact counts run to tens of thousands of digits, past the
        # interpreter's default int->str limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            print(count)
        finally:
            sys.set_int_max_str_digits(limit)
        return 0

    if cmd == "entropy":
        rows = entropy_curve(args.p, args.M, args.resolution)
        print("alpha,normalized_log_count,M,p")
        for alpha, value in rows:
            print(f"{alpha:.10g},{value:.12g},{args.M},{args.p}")
        return 0

    if cmd == "bracelets":
        if args.count is not None:
            print(bracelet_count(args.n, args.count))
        else:
            iset = parse_index_set(args.canonical, args.n)
            cls = bracelet_canonical(iset)
            _emit(
                {
                    "canonical": cls.canonical.array.tolist(),
                    "orbit_size": cls.orbit_size,
                }
            )
        return 0

    if cmd == "oracle":
        iset = parse_index_set(args.I, args.N)
        _emit({"universal": brute_force_universal(iset, args.N, args.tolerance)})
        return 0

    if cmd == "interpolate":
        samples_obj = _load_json(args.samples)
        support_obj = _load_json(args.support)
        try:
            indices = samples_obj["indices"]
            sample_set = IndexSet.of(args.N, indices)
            values = [complex(re, im) for re, im in samples_obj["values"]]
            support = IndexSet.from_json(support_obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad samples/support JSON: {exc}")
        if len(values) != len(indices):
            raise UsageError(f"{len(indices)} sample indices but {len(values)} values")
        # interpolate takes the values in increasing index order
        values = [v for _, v in sorted(zip(indices, values), key=lambda iv: int(iv[0]))]
        if support.n != args.N:
            raise UsageError(
                f"support file declares n={support.n}, command line says N={args.N}"
            )
        try:
            signal = interpolate(values, sample_set, support, args.N)
        except SingularSystemError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        _emit(signal.to_json())
        return 0

    if cmd == "condition":
        support = parse_index_set(args.J, args.N)
        block = IndexSet.of(args.N, range(len(support)))
        report = condition_report(block, support, args.N)
        _emit(
            {
                "condition_number": report.condition_number,
                "lower_bound": report.lower_bound,
            }
        )
        return 0

    if cmd == "uncertainty":
        n, modulus = _modulus(args)
        obj = _load_json(args.signal)
        try:
            signal = Signal.from_json(obj)
        except ValueError as exc:
            raise UsageError(str(exc))
        if signal.n != n:
            raise UsageError(f"signal length {signal.n} does not match N={n}")
        report = verify_uncertainty(signal, modulus)
        _emit(report.to_json())
        return 0 if report.all_pass else 1

    if cmd == "rand-maximal":
        _, modulus = _modulus(args)
        summary = random_maximal_experiment(
            modulus, args.s, args.d, args.delta, args.trials, args.seed
        )
        _emit(summary.to_json())
        return 0 if summary.within_bound else 1

    if cmd == "rand-signal":
        _, modulus = _modulus(args)
        summary = random_signal_uncertainty(
            modulus, args.r, args.delta, args.trials, args.seed
        )
        _emit(summary.to_json())
        return 0 if summary.within_bound else 1

    if cmd == "sumset":
        n = _require_n(args)
        x = parse_index_set(args.X, n)
        y = parse_index_set(args.Y, n)
        total = sumset(x, y)
        out: dict = {"sumset": total.array.tolist()}
        code = 0
        if args.check:
            modulus = PrimePowerModulus.from_n(n)
            report = cauchy_davenport_check(x, y, modulus)
            out["check"] = report.to_json()
            if not report.omega_pass or report.direct_pass is False:
                code = 1
        _emit(out)
        return code

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # domain preconditions (bad modulus class, out-of-range sizes)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
