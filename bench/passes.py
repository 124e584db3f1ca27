"""Passes over a workload, run inside a child interpreter.

A pass calls ``ghzsplit.cli.main`` once per operation, one call at a time
(a closed loop with one client). Each call's stdout goes to a ``Sink`` that
hashes it. A pass's time is the sum of its calls' wall times; checking and
hashing happen outside the timed calls.

A run starts a pass only if one as long as the last ends within its
``--seconds``. The first pass of a measured run runs the program alone and
is not checked, so that the peak RSS read after it belongs to the program
and not to the checker or the reference. Every later pass is checked, must
reproduce the first pass's digests byte for byte, and runs each operation
on the frozen reference copy as well, right before or after the program
(alternating). The host's speed swings by tens of percent within minutes;
both sides of a pair see the same swing, so the time ratio cancels it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import checks
import tracer as tracing
from workloads import WORKLOADS

MAX_REPORTED_FAILURES = 20

# Environment variables that cap BLAS / OpenMP thread pools.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Sink:
    """Stands in for stdout: hashes and counts what the program writes."""

    def __init__(self, keep: bool):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.parts: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.bytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Pass:
    seconds: float = 0.0  # sum of the calls' wall times
    ref_seconds: float = 0.0  # the same operations on the reference copy
    items: int = 0
    out_bytes: int = 0
    digests: list[str] = field(default_factory=list)
    exit_codes: list = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # op index -> why

    @property
    def items_per_s(self) -> float:
        return self.items / self.seconds

    def summary(self) -> dict:
        return {
            "seconds": self.seconds,
            "ref_seconds": self.ref_seconds,
            "items": self.items,
            "items_per_s": self.items_per_s,
            "out_bytes": self.out_bytes,
        }


def _call(cli, argv, sink: Sink, err: io.StringIO):
    """One timed CLI call: returns (exit status or crash message, seconds)."""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the operation, not the run
            code = f"raised {type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start


def run_pass(cli, ops, *, check: bool, reference=None, tracer=None,
             trace_base: int = 0) -> Pass:
    result = Pass()
    for k, op in enumerate(ops):
        sink, err = Sink(keep=check), io.StringIO()
        if tracer is not None:
            tracer.trace_id = trace_base + k
        if reference is not None and k % 2:
            result.ref_seconds += _call(reference, op.argv, Sink(False), io.StringIO())[1]
        code, seconds = _call(cli, op.argv, sink, err)
        result.seconds += seconds
        if reference is not None and not k % 2:
            result.ref_seconds += _call(reference, op.argv, Sink(False), io.StringIO())[1]
        result.items += op.items
        result.out_bytes += sink.bytes
        result.digests.append(sink.digest.hexdigest())
        result.exit_codes.append(code)
        if not check:
            continue
        where = " ".join(op.argv)
        if not isinstance(code, int):
            result.failures[k] = f"{where}: {code}"
            continue
        try:
            checks.check(op.argv, code, "".join(sink.parts))
        except Exception as exc:  # malformed output fails the check too
            result.failures[k] = (
                f"{where}: {type(exc).__name__}: {exc} {err.getvalue()[:200]}"
            )
    return result


def _compare(reference: Pass, other: Pass, ops, label: str) -> None:
    """Fail the operations of ``other`` whose stdout digest or exit status
    differs from ``reference``."""
    for k, op in enumerate(ops):
        if (reference.digests[k], reference.exit_codes[k]) != (
            other.digests[k], other.exit_codes[k]
        ):
            other.failures.setdefault(
                k, f"{' '.join(op.argv)}: {label} differs from the first pass"
            )


def _outcome(passes: list[Pass]) -> dict:
    messages = [m for p in passes for m in p.failures.values()]
    return {
        "attempted": sum(len(p.digests) for p in passes),
        "failed": len(messages),
        "failures": messages[:MAX_REPORTED_FAILURES],
    }


def _numpy_environment() -> dict:
    import numpy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {"numpy": numpy.__version__, "blas": blas}


def _time_left(start: float, lap: float, seconds: float) -> bool:
    """Whether another lap as long as the last one ends within ``seconds``."""
    return time.perf_counter() - start + lap <= seconds


def measured_run(cli, reference, ops, seconds: float) -> dict:
    start = time.perf_counter()
    passes = [run_pass(cli, ops, check=False)]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lap = 0.0
    while len(passes) < 2 or _time_left(start, lap, seconds):
        lap_start = time.perf_counter()
        passes.append(run_pass(cli, ops, check=True, reference=reference))
        lap = time.perf_counter() - lap_start
    for p in passes[1:]:
        _compare(passes[0], p, ops, "stdout or exit status")
    return {
        **_outcome(passes),
        "passes": [p.summary() for p in passes],
        "digests": passes[0].digests,
        "items_per_s": statistics.median(p.items_per_s for p in passes),
        "throughput_ratio": statistics.median(
            p.ref_seconds / p.seconds for p in passes[1:]
        ),
        "peak_rss_mb": peak_kib / 1024,
    }


def traced_run(cli, protocol, ops, seconds: float, spans_path: str) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are the
    median over the traced passes, and the untraced passes give the
    tracing overhead."""
    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    start, lap = time.perf_counter(), 0.0
    while not traced or _time_left(start, lap, seconds):
        lap_start = time.perf_counter()
        untraced.append(run_pass(cli, ops, check=True))
        first = len(tracer.spans)
        tracer.counters.clear()
        with tracer:
            p = run_pass(cli, ops, check=True, tracer=tracer,
                         trace_base=len(traced) * len(ops))
        traced.append(p)
        metrics = tracing.span_metrics(tracer.spans[first:], first)
        metrics.update(tracer.counters)
        metrics["cli.out_bytes"] = p.out_bytes
        per_pass.append(metrics)
        lap = time.perf_counter() - lap_start
    for p in untraced[1:]:
        _compare(untraced[0], p, ops, "stdout or exit status")
    for p in traced:
        _compare(untraced[0], p, ops, "traced stdout or exit status")
    # median_low: a count stays a whole number, a time is one pass's value
    values = {
        n: statistics.median_low(m.get(n, 0) for m in per_pass)
        for n in tracing.LAYER_METRICS
        if n not in tracing.PER_RUN
    }
    tried = values["oracle.candidates_tried"]
    values["oracle.solution_ratio"] = values["oracle.solutions_found"] / tried if tried else 0.0
    values.update(tracing.cache_misses(protocol))
    values["trace_overhead"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced) - 1.0
    )
    _write_spans(tracer.spans, spans_path)
    return {
        **_outcome(untraced + traced),
        "passes": [p.summary() for p in untraced],
        "traced_passes": [p.summary() for p in traced],
        "digests": untraced[0].digests,
        "layer_metrics": values,
        "spans_file": spans_path,
    }


def _write_spans(spans, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, trace_id) in enumerate(spans):
            fh.write(json.dumps({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "trace": trace_id,
            }, separators=(",", ":")) + "\n")


def run(cli, reference, workload: str, seed: int, seconds: float, trace: bool,
        spans_path: str) -> dict:
    """Run ``workload`` on the program's ``cli`` module; ``reference`` is
    the reference copy's ``cli`` module (unused when tracing)."""
    from ghzsplit import protocol

    ops = WORKLOADS[workload](seed)
    if trace:
        doc = traced_run(cli, protocol, ops, seconds, spans_path)
    else:
        doc = measured_run(cli, reference, ops, seconds)
    doc["operations"] = [" ".join(op.argv) for op in ops]
    doc["environment"] = {
        **_numpy_environment(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    return doc
