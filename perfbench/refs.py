"""Reference answers for every CLI operation the benchmark runs.

Written independently of the package: residue counts come from
``numpy.bincount``, constructions from an array version of the greedy
piece extraction, counts from the per-node product over the congruence
tree, and bracelet counts from Burnside's lemma over explicitly built
permutations. Nothing here imports ``unisamp``.
"""

from __future__ import annotations

import math

import numpy as np


def level_counts(elems: np.ndarray, p: int, k: int) -> np.ndarray:
    pk = p ** k
    return np.bincount(elems % pk, minlength=pk)


def verdict(elems: np.ndarray, p: int, m: int, rows=None) -> dict:
    """Balanced-residue verdict with the first witness in scan order
    (ascending level, then a, then b with count(b) - count(a) >= 2)."""
    for k in range(m + 1):
        c = rows[k] if rows else level_counts(elems, p, k)
        hi = int(c.max())
        if hi - int(c.min()) <= 1:
            continue
        a = int(np.flatnonzero(c <= hi - 2)[0])
        b = int(np.flatnonzero(c >= c[a] + 2)[0])
        return {"universal": False, "witness": {"k": k, "a": a, "b": b}}
    return {"universal": True}


def is_universal(elems: np.ndarray, p: int, m: int) -> bool:
    return verdict(elems, p, m)["universal"]


def _pairs(c) -> int:
    return int((c * (c - 1) // 2).sum())


def valuation_coprime(rows: list, p: int, m: int) -> bool:
    """Pairs congruent mod p^k, summed over k >= 1, for the set (rows[k]
    are its level counts) and for the block [0:d-1]."""
    d = int(rows[0][0])
    num = sum(_pairs(rows[k].astype(np.int64)) for k in range(1, m + 1))
    den = 0
    for k in range(1, m + 1):
        q, r = divmod(d, p ** k)
        den += r * (q + 1) * q // 2 + (p ** k - r) * q * (q - 1) // 2
    return num == den


def check_output(elems: np.ndarray, p: int, m: int) -> dict:
    rows = [level_counts(elems, p, k) for k in range(m + 1)]
    out = verdict(elems, p, m, rows)
    out["criteria_agree"] = True
    if len(elems):
        out["valuation_coprime"] = valuation_coprime(rows, p, m)
    return out


class Infeasible(Exception):
    pass


def deepest_full_level(elems: np.ndarray, p: int, m: int) -> int:
    """Largest k such that every class mod p^k is occupied (bisection:
    a full level implies every shallower level is full)."""
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if p ** mid <= elems.size and level_counts(elems, p, mid).min() > 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def greedy_pieces(elems: np.ndarray, p: int, m: int, levels=None) -> list:
    """Greedy extraction of elementary pieces from a sorted int64 array.

    Without `levels`, each step uses the deepest level whose classes are
    all occupied; with `levels`, the given levels in order. A piece takes
    the smallest element of each class mod p^k; remaining elements that
    share a class mod p^(k+1) with the piece are dropped.
    """
    rem = np.asarray(elems, dtype=np.int64)
    pieces = []
    todo = list(levels) if levels is not None else None
    while rem.size if todo is None else todo:
        if todo is None:
            k = deepest_full_level(rem, p, m)
        else:
            k = todo.pop(0)
        pk = p ** k
        classes, first = np.unique(rem % pk, return_index=True)
        if classes.size < pk:
            raise Infeasible(k)
        chosen = np.sort(rem[first])
        shadow = np.zeros(pk * p, dtype=bool)
        shadow[chosen % (pk * p)] = True
        rem = rem[~shadow[rem % (pk * p)]]
        pieces.append((k, chosen))
    return pieces


def maximal_output(elems: np.ndarray, p: int, m: int) -> dict:
    pieces = greedy_pieces(elems, p, m)
    example = np.sort(np.concatenate([c for _, c in pieces])) if pieces else np.array([], dtype=np.int64)
    return {
        "size": int(example.size),
        "example": example.tolist(),
        "pieces": [{"k": k, "indices": c.tolist()} for k, c in pieces],
    }


def maximal_size(elems: np.ndarray, p: int, m: int) -> int:
    return sum(p ** k for k, _ in greedy_pieces(elems, p, m))


def complement(elems: np.ndarray, n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[elems] = False
    return np.flatnonzero(mask)


def minimal_output(elems: np.ndarray, p: int, m: int) -> dict:
    n = p ** m
    omega = maximal_output(complement(elems, n), p, m)
    example = complement(np.asarray(omega["example"], dtype=np.int64), n)
    return {"size": n - omega["size"], "example": example.tolist()}


def construct_output(elems: np.ndarray, p: int, m: int, size: int):
    """Expected (exit code, stdout object) for `construct --size`."""
    cap = maximal_size(elems, p, m)
    if size > cap:
        return 1, None
    digits, rest = [], size
    k = 0
    while rest:
        rest, digit = divmod(rest, p)
        digits.extend([k] * digit)
        k += 1
    try:
        pieces = greedy_pieces(elems, p, m, levels=reversed(digits))
    except Infeasible:
        return 1, None
    got = np.sort(np.concatenate([c for _, c in pieces]))
    return 0, {"n": p ** m, "indices": got.tolist()}


def decompose_output(elems: np.ndarray, p: int, m: int):
    """Expected (exit code, stdout object or stderr verdict)."""
    v = verdict(elems, p, m)
    if not v["universal"]:
        return 1, v
    return 0, {"pieces": maximal_output(elems, p, m)["pieces"]}


def count_universal(p: int, m: int, d: int) -> int:
    """Universal d-subsets of Z_{p^M}: product over congruence-tree nodes
    of C(p, c mod p), where c is the node's class count."""
    total = 1
    for k in range(m):
        q, r = divmod(d, p ** k)
        q_next = d // p ** (k + 1)
        total *= math.comb(p, q + 1 - p * q_next) ** r
        total *= math.comb(p, q - p * q_next) ** (p ** k - r)
    return total


def log_count(p: int, m: int, d: int) -> float:
    """Natural log of count_universal, summed in log space."""
    total = 0.0
    for k in range(m):
        q, r = divmod(d, p ** k)
        q_next = d // p ** (k + 1)
        total += r * math.log(math.comb(p, q + 1 - p * q_next))
        total += (p ** k - r) * math.log(math.comb(p, q - p * q_next))
    return total


def entropy_rows(p: int, m: int, resolution: int) -> list:
    n = p ** m
    rows = []
    for i in range(resolution):
        alpha = i / (resolution - 1)
        d = min(n, math.floor(alpha * n))
        rows.append((f"{alpha:.10g}", log_count(p, m, d) / n))
    return rows


def bracelet_count(n: int, d: int) -> int:
    """Burnside over the 2n rotations and reflections, each built as an
    explicit permutation; fixed d-sets are unions of whole cycles."""
    total = 0
    for reflect in (False, True):
        for t in range(n):
            seen = [False] * n
            ways = [1] + [0] * d
            for start in range(n):
                if seen[start]:
                    continue
                length, i = 0, start
                while not seen[i]:
                    seen[i] = True
                    i = (t - i) % n if reflect else (i + t) % n
                    length += 1
                for s in range(d, length - 1, -1):
                    ways[s] += ways[s - length]
            total += ways[d]
    return total // (2 * n)


def bracelet_canonical(elems: np.ndarray, n: int) -> dict:
    shifts = np.arange(n)[:, None]
    images = np.concatenate(
        [np.sort((base[None, :] - shifts) % n, axis=1) for base in (elems, (-elems) % n)]
    )
    distinct = np.unique(images, axis=0)
    return {"canonical": distinct[0].tolist(), "orbit_size": int(distinct.shape[0])}


def sumset_output(x: np.ndarray, y: np.ndarray, p: int, m: int):
    n = p ** m
    total = np.unique((x[:, None] + y[None, :]) % n)
    size = int(total.size)
    direct = len(x) + len(y) - 1
    applicable = direct <= n and (is_universal(x, p, m) or is_universal(y, p, m))
    omega_x, omega_y = maximal_size(x, p, m), maximal_size(y, p, m)
    fallback = min(n, max(omega_x + len(y) - 1, len(x) + omega_y - 1))
    check = {
        "sumset_size": size,
        "direct_applicable": applicable,
        "direct_bound": direct if applicable else None,
        "direct_pass": size >= direct if applicable else None,
        "omega_bound": fallback,
        "omega_pass": size >= fallback,
    }
    code = 1 if not check["omega_pass"] or check["direct_pass"] is False else 0
    return code, {"sumset": total.tolist(), "check": check}


def comb_uncertainty_output(n: int, p: int, m: int, offset: int, step: int):
    """Support-size report for the comb 1[x = offset mod step]; its
    spectrum is supported exactly on the multiples of n/step."""
    time_supp = np.arange(offset % step, n, step)
    freq_supp = np.arange(0, n, n // step)
    time_zero, freq_zero = complement(time_supp, n), complement(freq_supp, n)

    def omega(s):
        return maximal_size(s, p, m)

    def phi(s):
        return n - maximal_size(complement(s, n), p, m)

    rows = [
        ("spectrum support vs zero-set Omega", len(freq_supp), 1 + omega(time_zero)),
        ("signal support vs spectral zero-set Omega", len(time_supp), 1 + omega(freq_zero)),
    ]
    checks = [{"name": a, "lhs": l, "rhs": r, "pass": l >= r} for a, l, r in rows]
    for name, supp, zeros in (
        ("support Phi vs spectral zero count", time_supp, freq_zero),
        ("spectral support Phi vs zero count", freq_supp, time_zero),
    ):
        lhs, rhs = phi(supp), len(zeros) + 1
        checks.append({"name": name, "lhs": lhs, "rhs": rhs, "pass": rhs <= lhs})
    ok = all(c["pass"] for c in checks)
    return (0 if ok else 1), {"checks": checks, "all_pass": ok}


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def _summary(trials, successes, bound, params) -> dict:
    pb = min(max(bound, 0.0), 1.0)
    slack = 3.0 * math.sqrt(pb * (1.0 - pb) / trials)
    emp = successes / trials
    return {
        "trials": trials,
        "successes": successes,
        "empirical_probability": emp,
        "theoretical_bound": bound,
        "slack_3_sigma": slack,
        "within_bound": emp >= bound - slack,
        "prng": "PCG64",
        "parameters": params,
    }


def rand_maximal_output(p, m, s, d, delta, trials, seed):
    n = p ** m
    successes = 0
    for t in range(trials):
        subset = np.sort(_trial_rng(seed, t).permutation(n)[:s])
        successes += maximal_size(subset, p, m) >= d
    out = _summary(
        trials, successes, 1.0 - d ** (-delta),
        {"N": n, "s": s, "d": d, "delta": delta, "lambda": (n - s) / n, "seed": seed},
    )
    return (0 if out["within_bound"] else 1), out


def rand_signal_output(p, m, r, delta, trials, seed):
    n = p ** m
    a = n / ((1 + delta) * math.log(n)) * (1 + math.log(1 + delta) + math.log(math.log(n)))
    successes = 0
    for t in range(trials):
        rng = _trial_rng(seed, t)
        support = rng.permutation(n)[:r]
        values = np.zeros(n, dtype=np.complex128)
        values[support] = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        spectrum = np.abs(np.fft.fft(values))
        supp_fg = int(np.count_nonzero(spectrum > 1e-9 * spectrum.max()))
        successes += int(np.count_nonzero(values)) + supp_fg >= 1.0 + a
    out = _summary(
        trials, successes, 1.0 - (a - r) ** (-delta),
        {"N": n, "r": r, "delta": delta, "a": a, "seed": seed},
    )
    return (0 if out["within_bound"] else 1), out


def condition_output(support: np.ndarray, n: int) -> dict:
    """Condition number of the block-sampling DFT submatrix and the
    product-of-sines lower bound, both recomputed with numpy."""
    d = len(support)
    phase = np.outer(np.arange(d), support) % n
    sv = np.linalg.svd(np.exp(-2j * np.pi * phase / n), compute_uv=False)
    diff = support[:, None] - support[None, :]
    off = ~np.eye(d, dtype=bool)
    log_p = np.log(np.abs(2.0 * np.sin(np.pi * diff[off] / n))).sum()
    bound = math.sqrt(d) * math.exp(-log_p / (2 * d)) if d > 1 else 1.0
    return {"condition_number": float(sv[0] / sv[-1]), "lower_bound": bound}


def bandlimited_signal(coeffs: np.ndarray, support: np.ndarray, n: int) -> np.ndarray:
    """f[t] = sum_j c_j exp(+2 pi i t j / n), with exact phase reduction."""
    phase = np.outer(np.arange(n), support) % n
    return np.exp(2j * np.pi * phase / n) @ coeffs
