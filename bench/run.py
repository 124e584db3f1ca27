"""ghzsplit benchmark.

    python3 bench/run.py --workload trials-csv --seed 7 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, with a summary table

Each run starts fresh child interpreters (bench/child.py) with PYTHONPATH
set to this checkout's ``src`` and BLAS / OpenMP pools pinned to one thread.
Set-up probes time the set-up alone; one more child then runs the
workload's passes (see passes.py) for ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over the
children of the run), ``throughput_ratio`` (the frozen reference copy's
time over the program's on the same operations, median over passes) and
``peak_rss_mb``. ``--trace 1`` reports the per-layer metrics of tracer.py
instead. Before the last line, stdout holds a JSON record of the run:
environment, per-pass figures (``items_per_s`` is the program's trials or
table rows per wall-clock second), stdout digests and failures. The last
line is ``{"correct", "attempted", "failed", "metrics"}``. The exit status is 0 whenever that line is printed; it is 2
when this checkout has no ghzsplit sources, and 1 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from passes import THREAD_ENV
from tracer import LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"
PACKAGE, REFERENCE = "ghzsplit", "ghzsplit_ref"

# Set-up-only children per run, after one untimed warm-up. Half run before
# the workload child and half after it, so that slow spells of the host
# weigh less on the median.
SETUP_PROBES = 10
CHILD_GRACE_S = 100  # allowed beyond --seconds before a child is killed

END_TO_END_UNITS = {"setup_s": "s", "throughput_ratio": "x", "peak_rss_mb": "MiB"}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    # The program gets nothing but the generated arguments.
    for name in ("GHZSPLIT_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    return env


def _child(env, args: list[str], timeout: float) -> dict:
    """Run one child to completion; add its set-up time to its document."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"child {args} exited with status {proc.returncode}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc.pop("ready") - spawned
    return doc


def _probes(env, count: int) -> list[float]:
    return [_child(env, [PACKAGE], CHILD_GRACE_S)["setup_s"] for _ in range(count)]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns (record, result line)."""
    env = _child_env()
    setup = []
    if not trace:
        for package in (PACKAGE, REFERENCE):  # write bytecode caches, warm the page cache
            _child(env, [package], CHILD_GRACE_S)
        setup += _probes(env, SETUP_PROBES // 2)
    spans = OUT_DIR / f"spans-{workload}.jsonl"
    doc = _child(
        env, [PACKAGE, workload, str(seed), str(seconds), str(int(trace)), str(spans)],
        seconds + CHILD_GRACE_S,
    )
    setup.append(doc.pop("setup_s"))
    if trace:
        metrics = {
            name: {"value": doc["layer_metrics"][name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        setup += _probes(env, SETUP_PROBES - SETUP_PROBES // 2)
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ratio": doc["throughput_ratio"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            **doc.pop("environment"),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(),
        },
        "setup_samples_s": setup,
        **doc,
    }
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    return record, result


def _summary_table(records: dict[str, dict], results: dict[str, dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<16} {'value':>14}  unit"]
    for workload, result in results.items():
        rows = dict(result["metrics"])
        if "items_per_s" in records[workload]:
            item = "rows" if workload == "audit" else "trials"
            rows["items_per_s"] = {
                "value": records[workload]["items_per_s"], "unit": f"{item}/s",
            }
        rows["error_rate"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio",
        }
        for name, m in rows.items():
            lines.append(f"{workload:<12} {name:<16} {m['value']:>14.6g}  {m['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ghzsplit" / "__init__.py").is_file():
        print(f"bench: no ghzsplit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records, results = {}, {}
    for name in names:
        try:
            records[name], results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except ChildError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(records[name], indent=2))
    if args.workload == "all":
        print(_summary_table(records, results))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
