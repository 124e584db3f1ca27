"""Command line interface.

Three subcommands:

* ``run``: execute protocol trials and emit transcripts plus a fidelity
  summary. Exit status 0 only if every trial meets the fidelity threshold.
* ``verify``: audit the published correction tables against brute-force
  derived solutions. Exit status 0 only if no row mismatches and the active
  basis has no Gram defects.
* ``export``: dump a measurement basis or a correction table.

Every command writes through one writer, to stdout and to the ``--emit``
file. ``run`` streams: csv and text rows go out chunk by chunk, and the JSON
document goes out as its header, then each transcript as its trial ends,
then the summary, in the bytes ``json.dumps(document, indent=2)`` gives.

Output is deterministic: no timestamps, hostnames, or filesystem paths appear
in any document, so identical invocations are byte-identical. Configuration
errors exit with status 2 and a structured JSON error on stderr.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterator

from .oracle import derive_table, verify_table
from .protocol import (
    CANONICAL,
    FIDELITY_ATOL,
    LITERAL,
    SCHEMA_VERSION,
    SecretSpec,
    TrialChunk,
    Variant,
    VARIANT_SPECS,
    alice_cbits,
    build_alice_basis,
    published_correction_table,
    run_protocol,
    run_trials,
    trial_draws,
)
from .statevec import NormalizationError

SEED_ENV_VAR = "GHZSPLIT_SEED"
# the run summary keeps one float per trial (about 32 B): at most ~320 MB
MAX_TRIALS = 10**7

_VARIANT_CHOICES = [v.value for v in Variant]


def _emit_error(kind: str, message: str, **extra) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": kind, "message": message, **extra},
    }
    print(json.dumps(doc, indent=2), file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    # route usage errors through the structured-error path (exit status 2)
    def error(self, message):
        _emit_error("usage", message)


def _resolve_seed(value: int | None) -> int:
    source, text = "--seed", value
    if value is None:
        source, text = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:  # numpy takes non-negative seeds only
        _emit_error(
            "config", f"{source} must be a non-negative integer, got {text!r}"
        )
    return seed


def _parse_secret(text: str, variant: Variant) -> SecretSpec:
    parts = [p.strip() for p in text.split(",")]
    coeffs = []
    for part in parts:
        try:
            coeffs.append(complex(part))
        except ValueError:
            _emit_error(
                "config",
                f"could not parse secret coefficient {part!r}; use Python "
                "complex syntax such as 0.5 or 0.5+0.5j",
            )
    # NaN passes the norm check, and inf or an overflowing weight sum leaves
    # a deficit that JSON cannot carry
    weight = sum(abs(c) for c in coeffs)
    if not math.isfinite(weight * weight):
        _emit_error("config", f"secret coefficients must be finite, got {text!r}")
    spec = SecretSpec(variant, tuple(coeffs))
    try:
        spec.state  # checks count and norm; built once, for every trial
    except NormalizationError as exc:
        _emit_error("config", str(exc), deficit=exc.deficit)
    except ValueError as exc:  # a wrong coefficient count
        _emit_error("config", str(exc))
    return spec


def _parse_forced(text: str, variant: Variant) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        _emit_error(
            "config",
            f"--forced takes 'alice_outcome,charlie_bit', got {text!r}",
        )
    try:
        outcome, bit = int(parts[0]), int(parts[1])
    except ValueError:
        _emit_error("config", f"--forced components must be integers, got {text!r}")
    limit = VARIANT_SPECS[variant].num_outcomes
    if not 0 <= outcome < limit:
        _emit_error(
            "config",
            f"forced outcome must be in [0, {limit}) for {variant.value}, "
            f"got {outcome}",
        )
    if bit not in (0, 1):
        _emit_error("config", f"forced charlie bit must be 0 or 1, got {bit}")
    return outcome, bit


def _emit_write_error(emit: str, exc: OSError) -> None:
    _emit_error("config", f"cannot write --emit file {emit!r}: {exc.strerror}")


@contextlib.contextmanager
def _output(emit: str | None) -> Iterator[Callable[[str], None]]:
    """A writer to stdout and, with ``--emit``, to that file too.

    Each piece reaches the file (flushed) before stdout, so a path that
    cannot be opened or written gives the ``config`` error before stdout
    gets that piece; stdout keeps only the pieces written before it.
    """
    if not emit:
        yield sys.stdout.write
        return
    try:
        fh = open(emit, "w", encoding="utf-8")
    except OSError as exc:
        _emit_write_error(emit, exc)

    def write(text: str) -> None:
        try:
            fh.write(text)
            fh.flush()  # a full disk shows here, not after stdout
        except OSError as exc:
            with contextlib.suppress(OSError):
                fh.close()  # closes even when its own flush fails again
            _emit_write_error(emit, exc)
        sys.stdout.write(text)

    try:
        yield write
    finally:
        try:
            fh.close()  # a no-op when write() already closed it
        except OSError as exc:
            _emit_write_error(emit, exc)


def _json_text(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(doc, indent=2)`` writes it ``depth`` levels
    inside ``doc``: no JSON string holds a raw newline, so each line break
    just gains the outer indent. Values are fresh trees: no cycle checks."""
    text = json.dumps(value, indent=2, check_circular=False)
    return text.replace("\n", "\n" + "  " * depth)


def _csv_payload(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_RUN_CSV_HEADER = [
    "trial",
    "variant",
    "alice_outcome",
    "alice_cbits",
    "charlie_bit",
    "correction",
    "fidelity",
]


def _run_rows(chunk: TrialChunk, first: int, fmt: str) -> str:
    """CSV rows or text lines of one chunk, whose first trial is ``first``."""
    trials = zip(
        range(first, first + len(chunk.fidelities)),
        chunk.alice_outcomes,
        chunk.charlie_bits,
        chunk.corrections,
        chunk.fidelities,
    )
    if fmt == "csv":
        return _csv_payload(
            [
                [trial, chunk.variant.value, i, alice_cbits(i), b, str(p), repr(f)]
                for trial, i, b, p, f in trials
            ]
        )
    return "".join(
        f"trial {trial}: outcome={i} cbits={alice_cbits(i)} charlie={b} correction={p} "
        f"fidelity={f:.12f}\n"
        for trial, i, b, p, f in trials
    )


def _cmd_run(args) -> int:
    variant = Variant.parse(args.variant)
    seed = _resolve_seed(args.seed)
    if not 1 <= args.trials <= MAX_TRIALS:
        _emit_error("config", f"--trials must be 1 to {MAX_TRIALS}, got {args.trials}")
    if not 0.0 <= args.tolerance < math.inf:
        _emit_error(
            "config", f"--tolerance must be finite and >= 0, got {args.tolerance}"
        )
    secret = _parse_secret(args.secret, variant) if args.secret is not None else None
    forced = (
        _parse_forced(args.forced, variant) if args.forced is not None else None
    )
    # every fidelity is kept for the summary: a running total is not sum(),
    # which compensates its rounding on Python >= 3.12
    fidelities, counts = [], collections.Counter()
    with _output(args.emit) as write:
        if args.format == "json":
            header = {
                "schema_version": SCHEMA_VERSION,
                "command": "run",
                "variant": variant.value,
                "seed": seed,
                "trials": args.trials,
                "tolerance": args.tolerance,
                "forced": None
                if forced is None
                else {"alice_outcome": forced[0], "charlie_bit": forced[1]},
            }
            write(_json_text(header)[: -len("\n}")] + ',\n  "transcripts": [')
            for rngs, secrets in trial_draws(variant, seed, args.trials, secret):
                for rng, spec in zip(rngs, secrets):
                    t = run_protocol(spec, variant=variant, rng=rng, forced=forced)
                    sep = ",\n    " if fidelities else "\n    "
                    write(sep + _json_text(t.to_dict(), 2))
                    fidelities.append(t.fidelity)
                    counts[t.alice_outcome, t.charlie_bit] += 1
        else:
            if args.format == "csv":
                write(_csv_payload([_RUN_CSV_HEADER]))
            chunks = run_trials(
                variant, seed, args.trials, secret=secret, forced=forced
            )
            for chunk in chunks:
                write(_run_rows(chunk, len(fidelities), args.format))
                fidelities.extend(chunk.fidelities)
        low, mean = min(fidelities), sum(fidelities) / len(fidelities)
        ok = low >= 1.0 - args.tolerance
        if args.format == "json":
            summary = {
                "min_fidelity": low,
                "mean_fidelity": mean,
                "all_above_threshold": ok,
                "outcome_counts": [
                    {"alice_outcome": i, "charlie_bit": b, "count": n}
                    for (i, b), n in sorted(counts.items())
                ],
            }
            write('\n  ],\n  "summary": ' + _json_text(summary, 1) + "\n}\n")
        elif args.format == "text":
            write(
                f"summary: trials={args.trials} min_fidelity={low:.12f} "
                f"mean_fidelity={mean:.12f} ok={'yes' if ok else 'no'}\n"
            )
    return 0 if ok else 1


def _verify_text(report_dict: dict) -> list[str]:
    counts = report_dict["status_counts"]
    lines = [
        f"variant={report_dict['variant']} encoding={report_dict['encoding']} "
        f"MATCH={counts['MATCH']} PHASE_ONLY_MATCH={counts['PHASE_ONLY_MATCH']} "
        f"MISMATCH={counts['MISMATCH']} "
        f"basis_anomalies={len(report_dict['basis_anomalies'])} "
        f"passed={'yes' if report_dict['passed'] else 'no'}"
    ]
    for row in report_dict["rows"]:
        if row["status"] != "MISMATCH":
            continue
        sols = ",".join("*".join(s) for s in row["solutions"]) or "<none>"
        lines.append(
            f"  MISMATCH outcome={row['alice_outcome']} "
            f"bit={row['charlie_bit']} published={'*'.join(row['published'])} "
            f"solutions={sols}"
        )
    for anomaly in report_dict["basis_anomalies"]:
        lines.append(
            f"  basis_anomaly kind={anomaly['kind']} indices={anomaly['indices']}"
        )
    for note in report_dict["formula_inconsistencies"]:
        lines.append(f"  note kind={note['kind']} indices={note['indices']}")
    return lines


def _cmd_verify(args) -> int:
    variants = (
        list(Variant) if args.all else [Variant.parse(args.variant)]
    )
    encoding = LITERAL if args.paper_literal else CANONICAL
    reports = [verify_table(v, encoding=encoding) for v in variants]
    passed = all(r.passed for r in reports)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "encoding": encoding,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    }
    with _output(args.emit) as write:
        if args.format == "json":
            write(_json_text(doc) + "\n")
        else:
            lines = [line for report in doc["reports"] for line in _verify_text(report)]
            lines.append(f"verify: passed={'yes' if passed else 'no'}")
            write("\n".join(lines) + "\n")
    return 0 if passed else 1


def _cmd_export(args) -> int:
    variant = Variant.parse(args.variant)
    encoding = LITERAL if args.paper_literal else CANONICAL
    if args.what == "basis" and args.source is not None:
        _emit_error("config", "--source applies to --what table only")
    if args.what == "table" and args.paper_literal:
        _emit_error("config", "--paper-literal applies to --what basis only")
    if args.what == "basis":
        basis = build_alice_basis(variant, encoding)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "export",
            "what": "basis",
            "variant": variant.value,
            "encoding": encoding,
            "target_qubits": list(basis.target_qubits),
            "vectors": [
                {"index": i, "amplitudes": vec.amplitude_pairs()}
                for i, vec in enumerate(basis.vectors)
            ],
        }
        header = [
            "variant",
            "encoding",
            "vector_index",
            "component_index",
            "bitstring",
            "real",
            "imag",
        ]
        width = basis.vectors[0].num_qubits
        rows = (
            [
                variant.value, encoding, i, k, format(k, f"0{width}b"),
                repr(float(amp.real)), repr(float(amp.imag)),
            ]
            for i, vec in enumerate(basis.vectors)
            for k, amp in enumerate(vec.amplitudes)
            if amp != 0
        )
    else:
        if args.source == "derived":
            table = derive_table(variant).preferred_table()
        else:  # published, also when --source is not given
            table = published_correction_table(variant)
        table_dict = table.to_dict()
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "export",
            "what": "table",
            **table_dict,
        }
        header = [
            "variant",
            "source",
            "alice_outcome",
            "alice_cbits",
            "charlie_bit",
            "correction",
        ]
        rows = (
            [
                variant.value, table.source, row["alice_outcome"],
                row["alice_cbits"], row["charlie_bit"], "*".join(row["correction"]),
            ]
            for row in table_dict["rows"]
        )
    with _output(args.emit) as write:
        if args.format == "json":
            write(_json_text(doc) + "\n")
        else:
            write(_csv_payload([header, *rows]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghzsplit",
        description="Quantum information splitting over a pair of GHZ "
        "triplets: run protocol trials, audit correction tables, export "
        "bases and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute protocol trials")
    run.add_argument("--variant", required=True, choices=_VARIANT_CHOICES)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"sampling seed; falls back to ${SEED_ENV_VAR}, then 0",
    )
    run.add_argument(
        "--secret",
        default=None,
        help="comma-separated complex coefficients; omit for random secrets",
    )
    run.add_argument(
        "--forced",
        default=None,
        help="force measurement outcomes as 'alice_outcome,charlie_bit'",
    )
    run.add_argument("--format", choices=["json", "csv", "text"], default="json")
    run.add_argument("--tolerance", type=float, default=FIDELITY_ATOL)
    run.add_argument("--emit", default=None, help="also write output to this file")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="audit published correction tables")
    which = verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--variant", choices=_VARIANT_CHOICES)
    which.add_argument("--all", action="store_true")
    verify.add_argument(
        "--paper-literal",
        action="store_true",
        help="audit against the literal published basis encoding instead of "
        "the canonical one",
    )
    verify.add_argument("--format", choices=["json", "text"], default="json")
    verify.add_argument("--emit", default=None)
    verify.set_defaults(func=_cmd_verify)

    export = sub.add_parser("export", help="dump a basis or correction table")
    export.add_argument("--variant", required=True, choices=_VARIANT_CHOICES)
    export.add_argument("--what", required=True, choices=["basis", "table"])
    export.add_argument(
        "--source",
        choices=["published", "derived"],
        default=None,
        help="table export only: which table to dump (default published)",
    )
    export.add_argument("--paper-literal", action="store_true")
    export.add_argument("--format", choices=["json", "csv"], default="json")
    export.add_argument("--emit", default=None)
    export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
