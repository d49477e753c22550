"""Run `unisamp.cli` with spans around each module's public functions.

Usage: python perfbench/traced_cli.py TRACE_OUT CLI_ARGS...

Behaves like `python -m unisamp.cli CLI_ARGS...` (same stdout, stderr
and exit code). Spans (name, start, end, parent) and counters are kept
in memory and written to TRACE_OUT as JSON when the command ends; the
benchmark turns them into per-layer self times.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc

# (module, function, layer). A layer's time is the self time of its
# spans: duration minus the time covered by nested spans. Layer None
# only counts, so the time stays with the caller (dft_matrix is part of
# the interpolation and oracle cost that ROADMAP wants removed).
TRACED = [
    ("cli", "parse_indices", "cli.parse"),
    ("cli", "parse_index_set", "cli.parse"),
    ("cli", "_load_json", "cli.parse"),
    ("index_core", "IndexSet.of", "index_core.build"),
    ("index_core", "IndexSet.from_json", "index_core.build"),
    ("index_core", "residue_histogram", "index_core.histogram"),
    ("index_core", "dispersion", "index_core.histogram"),
    ("index_core", "chi_star", "index_core.histogram"),
    ("index_core", "bracelet_canonical", "index_core.bracelet"),
    ("index_core", "bracelet_count", "index_core.bracelet"),
    ("universality", "is_universal", "universality.verdict"),
    ("universality", "is_universal_via_chi_star", "universality.criteria"),
    ("universality", "is_universal_via_dispersion", "universality.criteria"),
    ("universality", "schur_valuation", "universality.criteria"),
    ("universality", "maximal_universal", "universality.construct"),
    ("universality", "minimal_universal", "universality.construct"),
    ("universality", "universal_subset_of_size", "universality.construct"),
    ("universality", "decompose", "universality.construct"),
    ("counting", "base_p_expansion", "counting.count"),
    ("counting", "count_universal", "counting.count"),
    ("counting", "count_by_brute_force", "counting.count"),
    ("counting", "entropy_curve", "counting.entropy"),
    ("fourier", "dft_matrix", None),
    ("fourier", "is_invertible", "fourier.rank"),
    ("fourier", "interpolate", "fourier.interp"),
    ("fourier", "brute_force_universal", "fourier.oracle"),
    ("fourier", "condition_report", "fourier.condition"),
    ("uncertainty", "random_maximal_experiment", "uncertainty.experiment"),
    ("uncertainty", "random_signal_uncertainty", "uncertainty.experiment"),
    ("uncertainty", "verify_uncertainty", "uncertainty.verify"),
    ("uncertainty", "support_profile", "uncertainty.verify"),
    ("uncertainty", "sumset", "uncertainty.sumset"),
    ("uncertainty", "cauchy_davenport_check", "uncertainty.sumset"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index]
        self.stack: list = []
        self.counters = {
            "index_core.histogram_calls": 0,
            "universality.calls": 0,
            "universality.pieces": 0,
            "counting.count_digits": 0,
            "fourier.dft_bytes": 0,
            "fourier.oracle_column_sets": 0,
            "fourier.interp_peak_mb": 0.0,
            "uncertainty.trials": 0,
        }
        self.oracle_cold: set = set()

    def wrap(self, layer, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.before(layer, func.__name__, args)
            if layer is None:
                return func(*args, **kwargs)
            span = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.after(layer, func.__name__, args, result)
            return result

        return traced

    def before(self, layer, name: str, args) -> None:
        c = self.counters
        if layer is None:
            c["fourier.dft_bytes"] += 16 * args[0] * args[0]
        elif layer == "index_core.histogram":
            c["index_core.histogram_calls"] += 1
        elif layer.startswith("universality"):
            c["universality.calls"] += 1
        elif name == "brute_force_universal":
            n, d = args[1], len(args[0])
            if d and (n, d) not in self.oracle_cold:
                self.oracle_cold.add((n, d))
                c["fourier.oracle_column_sets"] += math.comb(n, d)
        elif name in ("random_maximal_experiment", "random_signal_uncertainty"):
            c["uncertainty.trials"] += args[4] if name == "random_maximal_experiment" else args[3]
        elif name == "interpolate":
            tracemalloc.start()

    def after(self, layer, name: str, args, result) -> None:
        c = self.counters
        if name == "maximal_universal":
            c["universality.pieces"] += len(result.decomposition.pieces)
        elif name == "count_universal" and result > 0:
            c["counting.count_digits"] += math.floor(math.log10(result)) + 1
        elif name == "interpolate":
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            c["fourier.interp_peak_mb"] = max(c["fourier.interp_peak_mb"], peak)


def install(tracer: Tracer) -> None:
    """Replace every traced function wherever unisamp modules bound it."""
    import unisamp
    from unisamp import cli, counting, fourier, index_core, uncertainty, universality

    modules = {
        "cli": cli, "index_core": index_core, "universality": universality,
        "counting": counting, "fourier": fourier, "uncertainty": uncertainty,
    }
    namespaces = [unisamp, *modules.values()]
    for mod_name, qualname, layer in TRACED:
        owner = modules[mod_name]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(owner, cls_name)
            func = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(tracer.wrap(layer, func)))
            continue
        original = getattr(owner, qualname)
        traced = tracer.wrap(layer, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, traced)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from unisamp import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        raise
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "code": code, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
