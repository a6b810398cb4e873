"""Span tracer that wraps coulomb_sharp's public functions from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``coulomb_sharp`` module: the defining module's name, the names other
modules took with ``from .exact import ...`` (``optima.sturm_count``,
``spectrum.validated_eval``, the package re-exports) and the values of
module-level dicts such as ``verification.SUITES``.  A call is therefore
seen whichever name the caller used.  Wrappers pass arguments and results
through unchanged, so a traced run writes the same bytes as an untraced one.

Each call becomes a span ``(name, start, end, parent, self_s)`` kept in
memory; ``self_s`` is the span's duration minus the durations of its direct
child spans.  ``Tracer.dump`` writes the spans out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

PACKAGE = "coulomb_sharp"

# (module, function) pairs whose calls become spans named "<module>.<function>".
TRACED = (
    ("exact", "sturm_count"),
    ("exact", "isolate_unique_root"),
    ("exact", "bisect_root"),
    ("exact", "ratfun_reduce"),
    ("exact", "poly_gcd"),
    ("excess", "partial_fraction_sum"),
    ("excess", "f_as_ratfun"),
    ("excess", "g_as_ratfun"),
    ("excess", "h_a_as_ratfun"),
    ("excess", "logderiv_check"),
    ("excess", "r_eval"),
    ("excess", "q_eval"),
    ("excess", "f_eval"),
    ("optima", "q_star"),
    ("optima", "a_star"),
    ("optima", "q_value"),
    ("optima", "a_value_squared"),
    ("optima", "locate_t_star"),
    ("spectrum", "riesz_mean"),
    ("spectrum", "counting_function"),
    ("phase_space", "lt_rhs"),
    ("phase_space", "clr_rhs"),
    ("highprec", "validated_eval"),
    ("verification", "records_to_jsonl"),
    ("cli", "main"),
    ("cli", "render_decimal"),
)
SUITE_PREFIX = "verification.suite."

Args = tuple[Any, ...]
Kwargs = dict[str, Any]


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """In-memory spans and counters for one run of one workload repetition."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, float] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, seconds covered by child spans]
        self._installed: list[tuple[dict, str, Any]] = []

    # -- hooks that record work counts at the layer boundary -------------------

    def _count_calls_of_argument(self, counter: str) -> Callable[[Args, Kwargs], tuple[Args, Kwargs]]:
        """Wrap the callable passed first (value_at, compute) so its calls are counted."""
        counts = self.counts

        def before(args: Args, kwargs: Kwargs) -> tuple[Args, Kwargs]:
            inner = args[0]

            def counted(*a):
                counts[counter] += 1
                return inner(*a)

            return (counted,) + args[1:], kwargs

        return before

    def _sturm_input(self, args: Args, kwargs: Kwargs) -> tuple[Args, Kwargs]:
        poly = args[0]
        counts = self.counts
        degree = "exact.sturm_count.input_degree_max"
        bits = "exact.sturm_count.input_bits_max"
        counts[degree] = max(counts[degree], poly.degree)
        counts[bits] = max(counts[bits], max(_bits(c) for c in poly.coefficients))
        return args, kwargs

    def _report_records(self, args: Args, kwargs: Kwargs) -> tuple[Args, Kwargs]:
        records = list(args[0])
        self.counts["verification.records"] += len(records)
        self.counts["verification.non_pass"] += sum(r.verdict != "pass" for r in records)
        return (records,) + args[1:], kwargs

    def _suite_records(self, name: str) -> Callable[[Any], None]:
        def after(result) -> None:
            self.counts[f"{name}.records"] += len(result)

        return after

    # -- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[Args, Kwargs], tuple[Args, Kwargs]] | None = None,
        after: Callable[[Any], None] | None = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                spans[index] = (name, start, end, parent, elapsed - frame[1])
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, name: str) -> dict[str, Callable]:
        if name == "exact.sturm_count":
            return {"before": self._sturm_input}
        if name == "exact.bisect_root":
            return {"before": self._count_calls_of_argument("exact.bisect_root.evals")}
        if name == "highprec.validated_eval":
            return {"before": self._count_calls_of_argument("highprec.validated_eval.computes")}
        if name == "verification.records_to_jsonl":
            return {"before": self._report_records}
        return {}

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded package."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        replacements: dict[int, tuple[Callable, Callable]] = {}
        for module_name, func_name in TRACED:
            original = getattr(modules[f"{PACKAGE}.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            replacements[id(original)] = (original, self.wrap(name, original, **self._hooks(name)))
        for suite, original in modules[f"{PACKAGE}.verification"].SUITES.items():
            name = SUITE_PREFIX + suite
            replacements[id(original)] = (original, self.wrap(name, original, after=self._suite_records(name)))
        for module in modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._swap(namespace, key, value, replacements)
                if isinstance(value, dict) and key != "__builtins__":
                    for item_key, item in list(value.items()):
                        self._swap(value, item_key, item, replacements)

    def _swap(self, container: dict, key: str, value: Any, replacements: dict) -> None:
        entry = replacements.get(id(value))
        if entry is not None and entry[0] is value:
            container[key] = entry[1]
            self._installed.append((container, key, value))

    def uninstall(self) -> None:
        while self._installed:
            container, key, original = self._installed.pop()
            container[key] = original

    # -- results -------------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """`<name>.s`, `<name>.self_s` and `<name>.calls` per span name, plus the counters.

        Inclusive time counts only the outermost span of a name, so a function
        that reaches itself again is not counted twice.
        """
        spans = self.spans
        out: dict[str, float] = {}
        for name, start, end, parent, self_s in spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out.update(self.counts)
        return out

    def dump(self, path: str) -> None:
        """A header line naming the run and the fields, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"run": self.run_id, "fields": ["id", "name", "start", "end", "parent", "self_s"]}
            handle.write(json.dumps(header) + "\n")
            for index, (name, start, end, parent, self_s) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent if parent >= 0 else None, self_s]) + "\n")
