"""Per-layer tracing from outside the package: wrappers around its functions.

The tracer replaces each listed function with a wrapper in every package
module that binds it (``cli.render`` and ``formula.render`` are the same
object as ``expressions.render``, so all three are patched), and in the
``verification.SUITES`` table through which ``run_suites`` calls the
suites: these are the bindings callers actually look up.  Two wrapper
modes:

* span: one record per call with name, start, end, parent span and op id;
* count: call count and aggregate time only, for the functions called
  more than about ten thousand times per op.

Both modes charge their duration to the enclosing wrapper, so a layer's
self time is its own duration minus the part its traced children cover.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from functools import partial
from time import perf_counter

LAYERS = (
    "cli",
    "partitions",
    "coeffs",
    "expressions",
    "formula",
    "oracle",
    "numeric",
    "verification",
)

SPAN = {
    "cli": ("main",),
    "partitions": ("enumerate_A", "enumerate_B", "lift_to_tilde", "drop_tilde", "members"),
    "coeffs": ("verify_C_recursion",),
    "expressions": ("render", "formula_to_json", "formula_from_json"),
    "formula": (
        "delta_formula",
        "elementary_formula",
        "inverse_function_formula",
        "specialize_fx_zero",
        "derive_next",
        "delta_formula_via_recursion",
        "expand_delta",
    ),
    "oracle": ("oracle_formula", "formulas_equal"),
    "numeric": (
        "eval_formula",
        "shift_jet",
        "random_rational_jet",
        "jet_from_json",
        "jet_to_json",
        "builtin_problem",
        "evaluate_problem",
        "finite_difference_derivatives",
    ),
    "verification": (
        "recursion_suite",
        "oracle_suite",
        "johnson_suite",
        "shift_suite",
        "run_suites",
    ),
}

# Not wrapped: coeffs.binom, partitions.is_member_A/B and
# numeric.relative_error are leaves whose wrapper would cost more than
# their own work.
COUNT = {
    "partitions": (
        "predecessors",
        "enumerate_Z",
        "successor_advance",
        "successor_trade",
        "successor_mixed",
    ),
    "coeffs": ("signed_coeff", "coeff_C", "coeff_D", "zgamma_sum"),
    "formula": ("expand_block",),
    "oracle": ("total_derivative",),
    "numeric": ("eval_delta_block", "newton_solve"),
}

FORMULA_CLASSES = ("DeltaFormula", "ElemFormula")

_SELF_AND_CALLS = (
    "partitions.enumerate_A",
    "partitions.enumerate_B",
    "partitions.predecessors",
    "coeffs.signed_coeff",
    "coeffs.coeff_D",
    "coeffs.zgamma_sum",
    "expressions.from_terms",
    "oracle.total_derivative",
    "numeric.eval_formula.rational",
    "numeric.eval_formula.float",
    "numeric.shift_jet",
)
_SELF_ONLY = (
    "coeffs.verify_C_recursion",
    "expressions.render",
    "formula.delta_formula",
    "formula.elementary_formula",
    "formula.inverse_function_formula",
    "formula.specialize_fx_zero",
    "formula.derive_next",
    "formula.delta_formula_via_recursion",
    "formula.expand_delta",
    "oracle.oracle_formula",
    "oracle.formulas_equal",
    "verification.recursion_suite",
    "verification.oracle_suite",
    "verification.johnson_suite",
    "verification.shift_suite",
    "cli.main",
)

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [("trace_overhead", "ratio")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(m, u) for name in _SELF_AND_CALLS for m, u in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))]
    + [(f"{name}.self_s", "s") for name in _SELF_ONLY]
    + [
        ("partitions.enumerate_A.elements", "count"),
        ("partitions.enumerate_A.us_per_element", "us"),
        ("partitions.enumerate_B.elements", "count"),
        ("expressions.from_terms.terms_in", "count"),
        ("expressions.from_terms.terms_out", "count"),
        ("expressions.from_terms.kept_ratio", "ratio"),
        ("expressions.render.bytes_out", "bytes"),
        ("numeric.eval_formula.rational.p50_ms", "ms"),
        ("numeric.eval_formula.float.p50_ms", "ms"),
        ("numeric.eval_delta_block.calls", "count"),
        ("numeric.block_calls_per_distinct", "ratio"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers, collects spans and counts, derives the metrics."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s)
        self.stack: list[list] = []  # open wrappers: [span id or None, child time]
        self.counts: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.extra: dict = defaultdict(float)
        self.blocks: list = []  # (l, r) of each block evaluated in the current eval
        self.op = None
        self._next_id = 0
        self._undo: list = []

    # --- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        """Span wrapper; ``name`` may be a function of the call's arguments."""
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                label = name(args) if callable(name) else name
                spans.append(
                    (frame[0], label, start, end, parent, self.op, end - start - frame[1])
                )

        return wrapper

    def _count(self, name, fn):
        stack, record = self.stack, self.counts[name]

        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return wrapper

    def _noted(self, name, fn):
        """Function computing the extra counts of ``name``, or ``fn`` itself."""
        extra = self.extra
        if name in ("partitions.enumerate_A", "partitions.enumerate_B"):

            def enumerate_noted(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra[name + ".elements"] += len(result)
                return result

            return enumerate_noted
        if name == "expressions.render":

            def render_noted(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra["expressions.render.bytes_out"] += len(result.encode("utf-8"))
                return result

            return render_noted
        if name == "numeric.eval_formula":

            def eval_noted(*args, **kwargs):
                self.blocks = []
                result = fn(*args, **kwargs)
                extra["numeric.eval_delta_block.in_eval"] += len(self.blocks)
                extra["numeric.eval_delta_block.distinct"] += len(set(self.blocks))
                return result

            return eval_noted
        if name == "numeric.eval_delta_block":

            def block_noted(jet, l, r):
                self.blocks.append((l, r))
                return fn(jet, l, r)

            return block_noted
        return fn

    def _from_terms(self, fn):
        extra = self.extra

        def from_terms(cls, n, terms, *args, **kwargs):
            terms = list(terms)
            extra["expressions.from_terms.terms_in"] += len(terms)
            result = fn(cls, n, terms, *args, **kwargs)
            extra["expressions.from_terms.terms_out"] += len(result.terms)
            return result

        return from_terms

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.mods, layer) for layer in LAYERS] + [self.mods.package]
        suites = self.mods.verification.SUITES
        for modes, make in ((SPAN, self._span), (COUNT, self._count)):
            for layer, names in modes.items():
                home = getattr(self.mods, layer)
                for func in names:
                    original = getattr(home, func)
                    name = f"{layer}.{func}"
                    label = name
                    if name == "numeric.eval_formula":
                        label = lambda args: "numeric.eval_formula." + args[1].kind
                    wrapper = make(label, self._noted(name, original))
                    for module in modules:
                        if getattr(module, func, None) is original:
                            self._swap(vars(module), func, wrapper)
                    # run_suites looks the suites up in this table
                    for key, value in list(suites.items()):
                        if value is original:
                            self._swap(suites, key, wrapper)
        for cls_name in FORMULA_CLASSES:
            cls = getattr(self.mods.expressions, cls_name)
            original = cls.__dict__["from_terms"]
            wrapper = self._span("expressions.from_terms", self._from_terms(original.__func__))
            self._undo.append(partial(setattr, cls, "from_terms", original))
            setattr(cls, "from_terms", classmethod(wrapper))

    def _swap(self, table: dict, key: str, wrapper) -> None:
        self._undo.append(partial(table.__setitem__, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # --- results ------------------------------------------------------------

    def stats(self) -> dict:
        """name -> [calls, self seconds], spans and counts merged."""
        out = defaultdict(lambda: [0, 0.0])
        for _, name, _, _, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for name, (calls, _, self_s) in self.counts.items():
            out[name][0] += calls
            out[name][1] += self_s
        return out

    def metrics(self, overhead: float) -> dict:
        """Every metric of :data:`PER_LAYER` as name -> (value, unit)."""
        stats = self.stats()
        extra = self.extra
        layer_self = defaultdict(float)
        for name, (_, self_s) in stats.items():
            layer_self[name.split(".")[0]] += self_s
        latencies = defaultdict(list)
        for _, name, start, end, _, _, _ in self.spans:
            if name.startswith("numeric.eval_formula."):
                latencies[name].append((end - start) * 1e3)
        derived = {
            "trace_overhead": overhead,
            "partitions.enumerate_A.us_per_element": 1e6
            * _ratio(
                stats["partitions.enumerate_A"][1],
                extra["partitions.enumerate_A.elements"],
            ),
            "expressions.from_terms.kept_ratio": _ratio(
                extra["expressions.from_terms.terms_out"],
                extra["expressions.from_terms.terms_in"],
            ),
            "numeric.block_calls_per_distinct": _ratio(
                extra["numeric.eval_delta_block.in_eval"],
                extra["numeric.eval_delta_block.distinct"],
            ),
        }
        for kind in ("rational", "float"):
            values = latencies[f"numeric.eval_formula.{kind}"]
            derived[f"numeric.eval_formula.{kind}.p50_ms"] = (
                statistics.median(values) if values else 0.0
            )
        out = {}
        for metric, unit in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif field == "self_s" and base in LAYERS:
                value = layer_self[base]
            elif field == "self_s":
                value = stats[base][1]
            elif field == "calls":
                value = stats[base][0]
            else:
                value = extra[metric]
            out[metric] = (value, unit)
        return out

    def dump(self, path) -> None:
        """Write the spans and the aggregate counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op, self_s in self.spans:
                doc = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "self_s": self_s,
                }
                handle.write(json.dumps(doc) + "\n")
            for name, (calls, total, self_s) in sorted(self.counts.items()):
                doc = {"count": name, "calls": calls, "total_s": total, "self_s": self_s}
                handle.write(json.dumps(doc) + "\n")
