"""Span tracing of the library's layers, installed from the benchmark's side.

``Tracer.install`` wraps every public module-level function of the layer
modules (and ``Pencil.dense_at``) and rebinds each name in every
``tripencil`` module that holds it, so nested library calls get spans of
their own (``m_table -> in_spectrum -> poly_p``).  Spans stay in memory
while the run lasts; ``layer_metrics`` reduces them to the per-layer
metrics and ``dump`` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("pencil", "recurrence", "mfunctions", "giep", "oracle", "serialize", "cli")
COMPONENTS = ("recurrence.right_components", "recurrence.left_components",
              "recurrence.right_components_with_derivative")

# span record fields
NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


# Counts taken from call arguments or results ("computed" counts).
EXTRAS = {
    "recurrence.poly_p": lambda b, r: b["m"] ** 2,
    "recurrence.poly_q": lambda b, r: b["m"] ** 2,
    "recurrence.pq_sweep": lambda b, r: b["upto"],
    **{name: (lambda b, r: b["pencil"].n) for name in COMPONENTS},
    "giep.solve": lambda b, r: b["instance"].n - b["instance"].k,
    "serialize.save_json": lambda b, r: Path(b["path"]).stat().st_size,
    "cli.main": lambda b, r: r,
}

PER_LAYER = [
    ("recurrence.in_spectrum.calls", "count", "lower"),
    ("recurrence.in_spectrum.self_ms", "ms", "lower"),
    ("recurrence.poly_p.calls", "count", "lower"),
    ("recurrence.poly_p.self_ms", "ms", "lower"),
    ("recurrence.poly_coeff_ops", "count", "lower"),
    ("recurrence.pq_sweep.calls", "count", "lower"),
    ("recurrence.pq_sweep.self_ms", "ms", "lower"),
    ("recurrence.components.calls", "count", "lower"),
    ("recurrence.components.self_ms", "ms", "lower"),
    ("recurrence.sweep_steps", "count", "lower"),
    ("recurrence.eval_p.calls", "count", "lower"),
    ("recurrence.errors", "count", "lower"),
    ("mfunctions.m_table.self_ms", "ms", "lower"),
    ("mfunctions.resolvent_matrix.self_ms", "ms", "lower"),
    ("mfunctions.ldu_factors.self_ms", "ms", "lower"),
    ("mfunctions.trailing_inverse.self_ms", "ms", "lower"),
    ("mfunctions.reconstruct_from_m.self_ms", "ms", "lower"),
    ("mfunctions.errors", "count", "lower"),
    ("giep.solve.self_ms", "ms", "lower"),
    ("giep.head_components.self_ms", "ms", "lower"),
    ("giep.classify_imaginary.self_ms", "ms", "lower"),
    ("giep.solve_pair_system.calls", "count", "lower"),
    ("giep.delta.calls", "count", "lower"),
    ("giep.delta_per_index", "ratio", "lower"),
    ("giep.errors", "count", "lower"),
    ("oracle.generate_instance.self_ms", "ms", "lower"),
    ("oracle.generate.attempts", "count", "lower"),
    ("oracle.generate.accept_ratio", "ratio", "higher"),
    ("oracle.pencil_eigenvalues.self_ms", "ms", "lower"),
    ("oracle.verify.self_ms", "ms", "lower"),
    ("oracle.errors", "count", "lower"),
    ("pencil.dense_at.self_ms", "ms", "lower"),
    ("serialize.self_ms", "ms", "lower"),
    ("serialize.bytes", "B", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    def __init__(self, package, precondition_error: type):
        self.package = package
        self.precondition_error = precondition_error
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self._rebound: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- spans

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op_id, None, 0]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[START] = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except self.precondition_error as exc:
                span[ERROR] = type(exc).__name__
                raise
            except BaseException as exc:
                span[ERROR] = "!" + type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                self.stack.pop()
                if extra and span[ERROR] is None:
                    span[EXTRA] = int(extra(sig.bind(*args, **kwargs).arguments, result))

        return traced

    def install(self) -> None:
        """Rebind every public layer function, in every module that holds it."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        holders = [m for key, m in sys.modules.items()
                   if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)][1])
        pencil_cls = self.package.Pencil
        self._rebound.append((pencil_cls, "dense_at", pencil_cls.dense_at))
        pencil_cls.dense_at = self._wrap("pencil.dense_at", pencil_cls.dense_at)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._rebound):
            setattr(holder, attr, obj)
        self._rebound.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "extra"],
                                    "spans": self.spans}) + "\n")


def layer_metrics(spans: list[list], overhead_frac: float) -> dict[str, float]:
    """Reduce spans to the PER_LAYER metrics."""
    child_ns = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    self_ms = Counter()
    calls = Counter()
    extra = Counter()
    errors = Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        self_ms[name] += (s[END] - s[START] - child_ns[i]) / 1e6
        calls[name] += 1
        extra[name] += s[EXTRA]
        layer = name.split(".")[0]
        parent_layer = spans[s[PARENT]][NAME].split(".")[0] if s[PARENT] >= 0 else None
        if s[ERROR] and not s[ERROR].startswith("!") and parent_layer != layer:
            errors[layer] += 1

    def under(i: int, ancestor: str) -> bool:
        while i >= 0:
            if spans[i][NAME] == ancestor:
                return True
            i = spans[i][PARENT]
        return False

    attempts = sum(1 for s in spans if s[NAME] == "oracle.pencil_eigenvalues"
                   and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "oracle.generate_instance")
    accepted = sum(1 for s in spans if s[NAME] == "oracle.generate_instance" and s[ERROR] is None)
    delta_in_solve = sum(1 for i, s in enumerate(spans) if s[NAME] == "giep.delta" and under(i, "giep.solve"))
    indices = extra["giep.solve"]

    out = {
        "recurrence.in_spectrum.calls": calls["recurrence.in_spectrum"],
        "recurrence.in_spectrum.self_ms": self_ms["recurrence.in_spectrum"],
        "recurrence.poly_p.calls": calls["recurrence.poly_p"],
        "recurrence.poly_p.self_ms": self_ms["recurrence.poly_p"],
        "recurrence.poly_coeff_ops": extra["recurrence.poly_p"] + extra["recurrence.poly_q"],
        "recurrence.pq_sweep.calls": calls["recurrence.pq_sweep"],
        "recurrence.pq_sweep.self_ms": self_ms["recurrence.pq_sweep"],
        "recurrence.components.calls": sum(calls[c] for c in COMPONENTS),
        "recurrence.components.self_ms": sum(self_ms[c] for c in COMPONENTS),
        "recurrence.sweep_steps": extra["recurrence.pq_sweep"] + sum(extra[c] for c in COMPONENTS),
        "recurrence.eval_p.calls": calls["recurrence.eval_p"],
        "giep.solve_pair_system.calls": calls["giep.solve_pair_system"],
        "giep.delta.calls": calls["giep.delta"],
        "giep.delta_per_index": delta_in_solve / indices if indices else 0.0,
        "oracle.generate.attempts": attempts,
        "oracle.generate.accept_ratio": accepted / attempts if attempts else 0.0,
        "serialize.self_ms": sum(v for k, v in self_ms.items() if k.startswith("serialize.")),
        "serialize.bytes": extra["serialize.save_json"],
        "cli.exit_nonzero": sum(1 for s in spans if s[NAME] == "cli.main" and (s[ERROR] or s[EXTRA] != 0)),
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        out.setdefault(f"{layer}.errors", errors[layer])
    for name, unit, _ in PER_LAYER:
        if name not in out and name.endswith(".self_ms"):
            out[name] = self_ms[name[:-len(".self_ms")]]
    return {name: out[name] for name, _, _ in PER_LAYER}
