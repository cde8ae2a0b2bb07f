"""Per-layer tracing of towergrowth from outside the package.

``install`` replaces each layer's public functions with timing wrappers at
every ``towergrowth.*`` module attribute that refers to them, so calls made
inside the package (``quotients`` calling ``divisor_valuations``, ``cli``
calling ``order_sequence``) are seen as well as calls from the benchmark.
Each call becomes a span with its parent span; spans stay in memory and are
turned into per-layer figures by ``layer_metrics``.  A name that a later
version of the package drops is skipped and reports zero calls.

Self time of a span is its duration minus the durations of its direct
children.  A layer's ``self_s`` is the sum of the self times of its spans,
so the ``self_s`` figures add up to the traced time.  The other ``_s``
figures are inclusive: the time of the outermost calls to the named
functions, children included.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "polynomials",
    "modules",
    "linalg",
    "quotients",
    "invariants",
    "fitting",
    "scenario_io",
    "scenarios",
    "cli",
)

# functions the named per-layer figures are read from; everything in
# towergrowth.__all__ is wrapped as well
NAMED = {
    "polynomials": ("tower_poly", "tower_ratio", "cyclotomic_factors"),
    "modules": ("validate_descent", "require_valid"),
    "linalg": ("divisor_valuations", "in_local_span"),
    "quotients": ("order_sequence", "order_valuation", "quotient_group", "enumeration_oracle"),
    "invariants": ("codescent_defect",),
    "fitting": ("fit_parameters",),
    "scenario_io": ("parse_run",),
    "scenarios": ("builtin_scenario",),
    "cli": ("run_command",),
}

TOWER = ("tower_poly", "tower_ratio", "cyclotomic_factors")
VALIDATE = ("validate_descent", "require_valid")


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    # counters read at the boundary: kernel cells and rows, points, candidates
    cells: int = 0
    rows: int = 0
    points: int = 0
    candidates: int = 0

    def to_json(self) -> list:
        return [self.layer, self.name, self.parent, self.start_ns, self.end_ns,
                self.child_ns, self.cells, self.rows, self.points, self.candidates]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.coeff_bits = 0
        self._bits_seen: set[int] = set()

    def wrap(self, layer: str, name: str, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else None, 0)
            _boundary_counts(span, signature, args, kwargs)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.candidates = len(getattr(exc, "candidates", ()))
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_ns += span.end_ns - span.start_ns
            if name in ("tower_poly", "tower_ratio"):
                self._note_coefficients(result)
            return result

        return traced

    def _note_coefficients(self, poly) -> None:
        # tower polynomials are cached, so each object is measured once
        if id(poly) in self._bits_seen:
            return
        self._bits_seen.add(id(poly))
        coeffs = getattr(poly, "coeffs", ())
        if coeffs:
            self.coeff_bits = max(self.coeff_bits, max(abs(c) for c in coeffs).bit_length())


def _boundary_counts(span: Span, signature, args, kwargs) -> None:
    if span.name == "divisor_valuations" and args:
        rows = args[0]
        span.rows = len(rows)
        span.cells = len(rows) * (len(rows[0]) if rows else 0)
    elif span.layer == "quotients":
        span.points = 1
        if span.name == "order_sequence" and signature is not None:
            try:
                bound = signature.bind(*args, **kwargs).arguments
                span.points = bound["n_max"] - bound["n_min"] + 1
            except (TypeError, KeyError):
                pass


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions at every attribute naming them."""
    package = importlib.import_module("towergrowth")
    targets: dict[int, tuple[str, str, object]] = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"towergrowth.{layer}")
        except ImportError:
            continue
        names = set(NAMED.get(layer, ()))
        names.update(
            n for n in getattr(package, "__all__", ())
            if inspect.isfunction(getattr(package, n, None))
            and getattr(package, n).__module__ == module.__name__
        )
        for name in sorted(names):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn):
                targets[id(fn)] = (layer, name, fn)
    wrappers = {key: tracer.wrap(layer, name, fn) for key, (layer, name, fn) in targets.items()}
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "towergrowth" or key.startswith("towergrowth."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and value is targets[id(value)][2]:
                setattr(module, attr, wrappers[id(value)])


def _outermost(spans: list[Span], names: tuple[str, ...]) -> list[Span]:
    """Spans of ``names`` with no ancestor among ``names``."""
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(spans: list[Span], coeff_bits: int) -> dict[str, float]:
    """Per-layer figures of one traced round (seconds, counts, bits)."""
    ns = 1e-9
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ns * sum(
            s.end_ns - s.start_ns - s.child_ns for s in spans if s.layer == layer
        )

    def inclusive(names: tuple[str, ...]) -> float:
        return ns * sum(s.end_ns - s.start_ns for s in _outermost(spans, names))

    def calls(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    kernel = calls("divisor_valuations")
    m["polynomials.tower_s"] = inclusive(TOWER)
    m["polynomials.tower_coeff_bits"] = coeff_bits
    m["linalg.kernel_s"] = inclusive(("divisor_valuations",))
    m["linalg.kernel_calls"] = len(kernel)
    m["linalg.kernel_cells"] = sum(s.cells for s in kernel)
    m["linalg.kernel_max_rows"] = max((s.rows for s in kernel), default=0)
    m["linalg.span_s"] = inclusive(("in_local_span",))
    m["linalg.span_calls"] = len(calls("in_local_span"))
    m["quotients.points"] = sum(
        s.points for s in _outermost(spans, NAMED["quotients"])
    )
    m["modules.validate_s"] = inclusive(VALIDATE)
    m["modules.validate_calls"] = len(calls("validate_descent"))
    m["invariants.defect_s"] = inclusive(("codescent_defect",))
    m["invariants.defect_calls"] = len(calls("codescent_defect"))
    m["fitting.fit_s"] = inclusive(("fit_parameters",))
    m["fitting.fit_calls"] = len(calls("fit_parameters"))
    m["fitting.ambiguous_candidates"] = sum(s.candidates for s in calls("fit_parameters"))
    return m
