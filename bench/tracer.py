"""Spans and counters around the public functions of each ghzsplit layer.

The tracer wraps functions from the benchmark's side; the program itself is
not changed. ghzsplit modules import each other's functions by name
(``from .statevec import measure_in_basis``), so a wrapper is rebound in
every ghzsplit namespace that holds the original. Patching ``statevec``
alone would miss the calls ``protocol.run_protocol`` makes.

Each span is ``(name, start, end, parent_id, trace_id)``; its id is its index
in ``Tracer.spans``. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ghzsplit"

# Layer -> traced functions, as attribute paths inside ``ghzsplit.<layer>``.
TRACED = {
    "statevec": (
        "tensor_product", "measure_in_basis", "force_basis_outcome",
        "measure_hadamard", "force_hadamard_outcome", "apply_pauli_string",
        "fidelity", "basis_projection_probabilities", "PauliString.matrix",
    ),
    "protocol": (
        "run_protocol", "outcome_distribution", "random_secret", "substream",
        "build_secret", "Transcript.to_dict",
    ),
    "oracle": ("verify_table", "derive_table"),
    "cli": ("main",),
}
CACHED = ("build_channel", "build_alice_basis")  # functools caches in protocol

SPAN_METRICS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))


def _metric_units() -> dict[str, str]:
    units = {}
    for layer, attrs in TRACED.items():
        for attr in attrs:
            for suffix, unit in SPAN_METRICS:
                units[f"{layer}.{attr}.{suffix}"] = unit
    units.update({
        "statevec.StateVector.validations": "count",
        "protocol.run_protocol.p50_us": "us",
        "protocol.run_protocol.p99_us": "us",
        **{f"protocol.{fn}.misses": "count" for fn in CACHED},
        "oracle.candidates_tried": "count",
        "oracle.solutions_found": "count",
        "oracle.solution_ratio": "ratio",
        "cli.out_bytes": "B",
        "trace_overhead": "ratio",
    })
    return units


# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = _metric_units()
# The ones worked out once per run; every other one is measured per pass.
PER_RUN = (
    *(f"protocol.{fn}.misses" for fn in CACHED),
    "oracle.solution_ratio",
    "trace_overhead",
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.trace_id)

        return wrapper

    def _validations(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["statevec.StateVector.validations"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _row_search(self, fn):
        # oracle._solutions_for_row(pre, targets, candidates) -> solutions:
        # the place where candidate corrections are tried against a row.
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(pre, targets, candidates, *args, **kwargs):
            sols = fn(pre, targets, candidates, *args, **kwargs)
            counters["oracle.candidates_tried"] += len(candidates)
            counters["oracle.solutions_found"] += len(sols)
            return sols

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every ghzsplit module namespace."""
        for name, module in list(sys.modules.items()):
            if module is None or name.partition(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in TRACED}
        for layer, attrs in TRACED.items():
            for path in attrs:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(modules[layer], owner_name) if owner_name else None
                if owner is not None:  # a method: rebinding the class is enough
                    self._set(owner, attr, self._span(f"{layer}.{path}", getattr(owner, attr)))
                else:
                    fn = getattr(modules[layer], attr)
                    self._rebind(fn, self._span(f"{layer}.{path}", fn))
        vector = modules["statevec"].StateVector
        self._set(vector, "__post_init__", self._validations(vector.__post_init__))
        search = getattr(modules["oracle"], "_solutions_for_row", None)
        if search is not None:
            self._rebind(search, self._row_search(search))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append((end - start) - covered)
    return out


def _nearest_rank(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def span_metrics(spans, id_offset: int = 0) -> dict[str, float]:
    """calls / total_s / self_s per traced function, plus run_protocol's
    per-call p50 and p99. ``id_offset`` is the id of ``spans[0]``, so that a
    slice of a longer span list keeps its parent links."""
    local = [
        (name, start, end, parent - id_offset if parent >= 0 else -1, tid)
        for name, start, end, parent, tid in spans
    ]
    out = {}
    for layer, attrs in TRACED.items():
        for path in attrs:
            for suffix, unit in SPAN_METRICS:
                out[f"{layer}.{path}.{suffix}"] = 0 if unit == "count" else 0.0
    for (name, start, end, _, _), own in zip(local, self_times(local)):
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += own
    runs = sorted(end - start for name, start, end, _, _ in local
                  if name == "protocol.run_protocol")
    out["protocol.run_protocol.p50_us"] = _nearest_rank(runs, 0.50) * 1e6
    out["protocol.run_protocol.p99_us"] = _nearest_rank(runs, 0.99) * 1e6
    return out


def cache_misses(protocol_module) -> dict[str, int]:
    """Lifetime misses of protocol's functools caches (0 if not cached)."""
    out = {}
    for fn in CACHED:
        info = getattr(getattr(protocol_module, fn), "cache_info", None)
        out[f"protocol.{fn}.misses"] = info().misses if info else 0
    return out
