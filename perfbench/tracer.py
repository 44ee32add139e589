"""Run one algly CLI command with a span around every call into each layer.

    python perfbench/tracer.py DUMP.json verify --problem FILE --seed N

algly must be importable (``PYTHONPATH=src``).  The command's stdout and
exit code are those of ``algly <args>``.  Spans (name, start, end,
parent) and per-call facts are kept in memory and written to DUMP.json
when the command returns; the dump's own duration goes to stderr as
``{"dump_s": ...}`` so the caller can leave it out of the traced time.

Modules bind names directly (``from .roots import positive_roots``), so
each traced function is replaced at every module attribute that holds
it, across all loaded ``algly`` modules.  Installation fails if a traced
function is missing, or if any module holds a same-named function that
is not the wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, owner path, attribute, fact recorder or None).  A fact is
# recorded per call, after it returns or raises (result None then).
TARGETS = [
    ("cli.load_problem", "algly.cli", "load_problem", None),
    ("cli.build_lyapunov", "algly.cli", "build_lyapunov", None),
    ("polycore.parse", "algly.polycore", "parse", None),
    ("polycore.eval", "algly.polycore:MultiPoly", "eval", None),
    ("homogenize.homogeneous_parts", "algly.homogenize", "homogeneous_parts", None),
    ("homogenize.tau_coefficients", "algly.homogenize", "tau_coefficients", None),
    ("roots.positive_roots", "algly.roots", "positive_roots",
     lambda args, res: [list(args[0].coeffs), None if res is None else len(res.roots)]),
    ("alf.tau", "algly.alf:HomogenizedLyapunov", "tau", lambda args, res: list(args[1])),
    ("alf.tau_dot", "algly.alf:HomogenizedLyapunov", "tau_dot", None),
    ("alf.check_star_convex", "algly.alf:HomogenizedLyapunov", "check_star_convex", None),
    ("dynsys.sample_directions", "algly.alf", "sample_directions", None),
    ("dynsys.check_invariance", "algly.dynsys", "check_invariance", None),
    ("dynsys.check_decrease", "algly.dynsys", "check_decrease", None),
    ("dynsys.rk4", "algly.dynsys", "rk4", lambda args, res: None if res is None else len(res.states) - 1),
    ("certs.verify_multiplier", "algly.certs", "verify_multiplier",
     lambda args, res: None if res is None else res.n_samples),
    ("certs.verify_gram", "algly.certs", "verify_gram", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []     # [name index, start ns, end ns, parent span or -1]
        self.stack = [-1]
        self.facts: dict[str, list] = {}

    def open(self, name: str) -> list[int]:
        span = [self._name_index(name), time.perf_counter_ns(), 0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list[int]) -> None:
        self.stack.pop()
        span[2] = time.perf_counter_ns()

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, record):
        nid = self._name_index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        facts = self.facts.setdefault(name, []) if record else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span[2] = clock()
                if facts is not None:
                    facts.append(record(args, result))

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "algly" or n.startswith("algly.")]
        for name, owner_path, attr, record in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], record))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, record)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        # A same-named function that is not a wrapper (a copy, or an import
        # taken before patching) would escape the trace: refuse to run.
        wrappers = {id(v) for mod in modules for v in vars(mod).values() if hasattr(v, "__wrapped__")}
        for _, _, attr, _ in TARGETS:
            for mod in modules:
                value = vars(mod).get(attr)
                if callable(value) and not isinstance(value, type) and id(value) not in wrappers:
                    raise RuntimeError(f"tracer left {mod.__name__}.{attr} unpatched")

    def dump(self, path: str, **extra) -> None:
        payload = {"names": self.names, "spans": self.spans, "facts": self.facts, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import algly.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    root = tracer.open(f"cli.{argv[0]}")
    try:
        code = algly.cli.main(argv)
    finally:
        tracer.close(root)
    sys.stdout.flush()
    t1 = time.perf_counter()
    tracer.dump(dump_path, import_s=import_s)
    sys.stderr.write(json.dumps({"dump_s": time.perf_counter() - t1}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
