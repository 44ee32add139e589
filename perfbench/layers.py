"""Per-layer metrics from tracer dumps, and the untimed root-count audit.

A workload's traced run makes two CLI calls, ``verify`` and ``simulate``.
Every metric comes from the ``verify`` call, except the ones for the
layers that ``simulate`` drives (``dynsys.rk4_*`` and ``alf.tau_dot_*``),
which add up both calls.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from oracle import exact_positive_root_count

# Layers are the modules of src/algly that hold pipeline code.
LAYERS = ("cli", "polycore", "homogenize", "roots", "alf", "dynsys", "certs")

AUDIT_CAP = 2048   # solve inputs audited per workload (seeded sample of the distinct ones)

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.load_problem_s": "s",
    "cli.self_s": "s",
    "cli.trace_overhead_s": "s",
    "cli.verdict_errors": "count",
    "cli.verdict_probes": "count",
    "polycore.parse_s": "s",
    "polycore.eval_calls": "count",
    "polycore.eval_self_s": "s",
    "homogenize.parts_s": "s",
    "homogenize.tau_coefficients_calls": "count",
    "homogenize.tau_coefficients_self_s": "s",
    "roots.solve_calls": "count",
    "roots.solve_self_s": "s",
    "roots.solve_us": "us",
    "roots.one_sign_ratio": "ratio",
    "roots.count_errors": "count",
    "roots.count_checked": "count",
    "alf.tau_calls": "count",
    "alf.tau_self_s": "s",
    "alf.tau_distinct_ratio": "ratio",
    "alf.tau_dot_calls": "count",
    "alf.tau_dot_self_s": "s",
    "alf.star_convex_s": "s",
    "dynsys.sample_directions_s": "s",
    "dynsys.invariance_s": "s",
    "dynsys.decrease_s": "s",
    "dynsys.rk4_steps": "count",
    "dynsys.rk4_s": "s",
    "certs.multiplier_s": "s",
    "certs.multiplier_points": "count",
    "certs.gram_s": "s",
    **{f"{layer}.src_lines": "lines" for layer in LAYERS},
}


class SpanTable:
    """Calls, total and self time per span name, for one or more dumps."""

    def __init__(self, dumps):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        for dump in dumps:
            names, spans = dump["names"], dump["spans"]
            children = [0] * len(spans)
            for _, start, end, parent in spans:
                if parent >= 0:
                    children[parent] += end - start
            for (nid, start, end, _), child in zip(spans, children):
                name = names[nid]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
                self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child)
                self.durations.setdefault(name, []).append(end - start)

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


def sign_variations(coeffs) -> int:
    signs = [c > 0.0 for c in coeffs if c != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def layer_metrics(verify_dump: dict, simulate_dump: dict) -> dict[str, float]:
    """Every per-layer metric that the two traced calls give directly."""
    verify = SpanTable([verify_dump])
    both = SpanTable([verify_dump, simulate_dump])
    facts = verify_dump["facts"]
    solves = facts.get("roots.positive_roots", [])
    taus = [tuple(x) for x in facts.get("alf.tau", [])]
    rk4_steps = [s for d in (verify_dump, simulate_dump) for s in d["facts"].get("dynsys.rk4", [])]
    solve_us = [ns / 1e3 for ns in verify.durations.get("roots.positive_roots", [])]
    return {
        "cli.import_s": verify_dump["import_s"],
        "cli.load_problem_s": verify.total_s("cli.load_problem"),
        "cli.self_s": verify.self_s("cli.verify"),
        "polycore.parse_s": verify.total_s("polycore.parse"),
        "polycore.eval_calls": verify.calls.get("polycore.eval", 0),
        "polycore.eval_self_s": verify.self_s("polycore.eval"),
        "homogenize.parts_s": verify.total_s("homogenize.homogeneous_parts"),
        "homogenize.tau_coefficients_calls": verify.calls.get("homogenize.tau_coefficients", 0),
        "homogenize.tau_coefficients_self_s": verify.self_s("homogenize.tau_coefficients"),
        "roots.solve_calls": len(solves),
        "roots.solve_self_s": verify.self_s("roots.positive_roots"),
        "roots.solve_us": statistics.median(solve_us) if solve_us else 0.0,
        "roots.one_sign_ratio": (sum(sign_variations(c) == 1 for c, _ in solves) / len(solves)
                                 if solves else 0.0),
        "alf.tau_calls": len(taus),
        "alf.tau_self_s": verify.self_s("alf.tau"),
        "alf.tau_distinct_ratio": len(set(taus)) / len(taus) if taus else 0.0,
        "alf.tau_dot_calls": both.calls.get("alf.tau_dot", 0),
        "alf.tau_dot_self_s": both.self_s("alf.tau_dot"),
        "alf.star_convex_s": verify.total_s("alf.check_star_convex"),
        "dynsys.sample_directions_s": verify.total_s("dynsys.sample_directions"),
        "dynsys.invariance_s": verify.total_s("dynsys.check_invariance"),
        "dynsys.decrease_s": verify.total_s("dynsys.check_decrease"),
        "dynsys.rk4_steps": sum(s for s in rk4_steps if s is not None),
        "dynsys.rk4_s": both.total_s("dynsys.rk4"),
        "certs.multiplier_s": verify.total_s("certs.verify_multiplier"),
        "certs.multiplier_points": sum(n for n in facts.get("certs.verify_multiplier", []) if n is not None),
        "certs.gram_s": verify.total_s("certs.verify_gram"),
    }


def src_lines(root: str) -> dict[str, int]:
    out = {}
    for layer in LAYERS:
        with open(os.path.join(root, "src", "algly", f"{layer}.py")) as fh:
            out[f"{layer}.src_lines"] = sum(1 for _ in fh)
    return out


def audit_solves(solves, seed: int) -> tuple[int, int]:
    """(errors, checked) over a seeded sample of the distinct solve inputs.

    `solves` holds [coefficients, root count returned] pairs.
    """
    distinct = {}
    for coeffs, count in solves:
        if count is not None:
            distinct.setdefault(tuple(coeffs), count)
    keys = sorted(distinct)
    if len(keys) > AUDIT_CAP:
        pick = np.random.default_rng([seed, 3]).choice(len(keys), AUDIT_CAP, replace=False)
        keys = [keys[i] for i in sorted(pick)]
    errors = sum(exact_positive_root_count(k) != distinct[k] for k in keys)
    return errors, len(keys)


def audit_probes(probes, wilkinson) -> tuple[int, int, list[str]]:
    """(errors, checked, notes) of positive_roots counts on the probe polynomials."""
    import algly

    errors = checked = 0
    notes = []
    for text, n_dirs, forms in probes:
        L = algly.HomogenizedLyapunov(algly.parse(text, 2))
        parts = L.decomposition.parts
        wrong = 0
        for d in algly.sample_directions(2, n_dirs, 0):
            star = [part.eval(d) for part in parts]
            for form in forms:
                coeffs = star if form == "star" else star[::-1]
                got = len(algly.positive_roots(algly.UniPoly(coeffs)).roots)
                wrong += got != exact_positive_root_count(coeffs)
                checked += 1
        errors += wrong
        notes.append(f"{text}: {wrong} of {n_dirs * len(forms)} counts wrong")
    got = len(algly.positive_roots(algly.UniPoly(wilkinson)).roots)
    want = exact_positive_root_count(wilkinson)
    errors += got != want
    checked += 1
    notes.append(f"Wilkinson-20: {got} of {want} roots")
    return errors, checked, notes
