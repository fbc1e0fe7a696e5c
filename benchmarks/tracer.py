"""Outside-in layer tracer for flatcirc, installed by patching bindings.

The wrappers live here, not in the package.  A function is reachable
through every name bound to it: the defining module, each ``from ... import``
copy in another module, and class-body aliases such as
``TruncatedSeries.__rmul__ = __mul__``.  ``install`` finds every binding that
holds the original function object and replaces each one, so a call through
any of them is recorded.

Layer functions record one span per call (name, start, end, parent and
task id) and keep the spans in memory.  The series kernel runs 10^4-10^5
times per pass, so its functions are aggregated as counters plus summed time
instead.  Self time is a call's duration minus the time of its traced
children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (metric prefix, module, attribute path) of every traced function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("series.add", "series", "TruncatedSeries.__add__"),
    ("series.derivative", "series", "TruncatedSeries.derivative"),
    ("series.invert_unit", "series", "TruncatedSeries.invert_unit"),
    ("series.exp_series", "series", "exp_series"),
    ("expr.parse_series", "expr", "parse_series"),
    ("models.instantiate", "models", "ModelDocument.instantiate"),
    ("fmanifold.potential_to_structure", "fmanifold", "potential_to_structure"),
    ("fmanifold.find_identity", "fmanifold", "find_identity"),
    ("fmanifold.five_term_residual", "fmanifold", "five_term_residual"),
    ("fmanifold.l_membership", "fmanifold", "l_membership"),
    ("geometry.pencil_curvature_split", "geometry", "pencil_curvature_split"),
    ("geometry.apply_higgs", "geometry", "apply_higgs"),
    ("geometry.covariant_derivative", "geometry", "covariant_derivative"),
    ("euler.h_from_e", "euler", "h_from_e"),
    ("euler.full_flatness_residual", "euler", "full_flatness_residual"),
    ("euler.e_equation_residual", "euler", "e_equation_residual"),
    ("duality.duality_verify", "duality", "duality_verify"),
    ("duality.dual_structure", "duality", "dual_structure"),
    ("duality.primitive_section", "duality", "primitive_section"),
    ("correlators.b_from_correlators", "correlators", "b_from_correlators"),
    ("correlators.correlators_from_b", "correlators", "correlators_from_b"),
    ("correlators.master_equation_residual", "correlators",
     "master_equation_residual"),
    ("permutofan.verify_fan", "permutofan", "verify_fan"),
    ("linalg.solve_overdetermined", "linalg", "solve_overdetermined"),
    ("linalg.determinant", "linalg", "determinant"),
    ("checks.run_check_suite", "checks", "run_check_suite"),
    ("cli.main", "cli", "main"),
)
# Called per series operation or per field product: counters, not spans.
AGGREGATED = {"series.mul", "series.add", "series.derivative",
              "series.invert_unit", "series.exp_series",
              "geometry.apply_higgs", "geometry.covariant_derivative",
              "linalg.determinant"}


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "task", "child_s")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], task: Optional[str]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.task = task
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans and counters for the functions in ``TARGETS``."""

    def __init__(self) -> None:
        self.task: Optional[str] = None
        self.spans: List[Span] = []
        self.counters: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.term_pairs = 0
        self.in_cap_pairs = 0
        self.bookkeeping_s = 0.0
        self._stack: List[Span] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "flatcirc"
                                           or name.startswith("flatcirc."))}
        owners: List[object] = []
        for name, mod in modules.items():
            owners.append(mod)
            owners.extend(value for value in vars(mod).values()
                          if isinstance(value, type) and value.__module__ == name)
        series_type = getattr(modules["flatcirc.series"], "TruncatedSeries")
        for label, module, path in TARGETS:
            owner: object = modules[f"flatcirc.{module}"]
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(label, original, series_type)
            for target in owners:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, binding, original))
                        setattr(target, binding, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            target, binding, original = self._patched.pop()
            setattr(target, binding, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------------

    def _wrap(self, label: str, fn: Callable, series_type: type) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        if label in AGGREGATED:
            counter = self.counters[label]
            count_pairs = label == "series.mul"

            def aggregated(*args, **kwargs):
                if count_pairs and isinstance(args[1], series_type):
                    t0 = clock()
                    self._count_pairs(args[0], args[1])
                    spent = clock() - t0
                    self.bookkeeping_s += spent
                    if stack:
                        stack[-1].child_s += spent
                # an aggregated frame passes its nearest span's id to children
                frame = Span(stack[-1].span_id if stack else None, label,
                             clock(), None, None)
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    frame.end = clock()
                    stack.pop()
                    duration = frame.end - frame.start
                    if stack:
                        stack[-1].child_s += duration
                    counter[0] += 1
                    counter[1] += duration
                    counter[2] += duration - frame.child_s

            return aggregated

        def spanned(*args, **kwargs):
            parent = stack[-1].span_id if stack else None
            frame = Span(len(self.spans), label, clock(), parent, self.task)
            self.spans.append(frame)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frame.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child_s += frame.end - frame.start

        return spanned

    def _count_pairs(self, a, b) -> None:
        cap = min(a.cap, b.cap)
        hist_a: Dict[int, int] = defaultdict(int)
        hist_b: Dict[int, int] = defaultdict(int)
        for e in a.coeffs:
            hist_a[sum(e)] += 1
        for e in b.coeffs:
            hist_b[sum(e)] += 1
        self.term_pairs += len(a.coeffs) * len(b.coeffs)
        self.in_cap_pairs += sum(ca * cb for da, ca in hist_a.items()
                                 for db, cb in hist_b.items() if da + db <= cap)

    # -- reading ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Cumulative per-layer figures: ``<label>.calls/.total_s/.self_s``."""
        table: Dict[str, float] = {}
        for label, _, _ in TARGETS:
            calls, total, own = self.counters[label] if label in AGGREGATED \
                else (0, 0.0, 0.0)
            table[f"{label}.calls"] = calls
            table[f"{label}.total_s"] = total
            table[f"{label}.self_s"] = own
        for span in self.spans:
            table[f"{span.name}.calls"] += 1
            table[f"{span.name}.total_s"] += span.end - span.start
            table[f"{span.name}.self_s"] += span.self_s
        table["series.mul.term_pairs"] = self.term_pairs
        table["series.mul.in_cap_pairs"] = self.in_cap_pairs
        table["trace.bookkeeping_s"] = self.bookkeeping_s
        return table
