"""Command line interface.

Three subcommands:

* ``run``: execute protocol trials and emit transcripts plus a fidelity
  summary. Exit status 0 only if every trial meets the fidelity threshold.
* ``verify``: audit the published correction tables against brute-force
  derived solutions. Exit status 0 only if no row mismatches and the active
  basis has no Gram defects.
* ``export``: dump a measurement basis or a correction table.

Every command writes through one writer, to stdout and to the ``--emit``
file. ``run`` makes its trials in ``run_trials`` chunks, whatever the format,
and writes each chunk's csv rows, text lines or JSON transcripts before the
next chunk is made; the JSON document comes out in the bytes
``json.dumps(document, indent=2)`` gives. Transcripts are filled straight
from the chunk's arrays between literal pieces of text, cut once per run
from the ``to_dict`` tree of trial 0 remade by ``substream``,
``random_secret`` and ``run_protocol``; the pieces hold the leaves every
trial of the run shares. A chunk's pieces and leaf texts are one object
array, joined and written a slice of trials at a time, and its floats get
one ``repr`` per distinct magnitude (a negative float is ``-`` and its
magnitude's text).

Output is deterministic: no timestamps, hostnames, or filesystem paths appear
in any document, so identical invocations are byte-identical. Configuration
errors, a closed stdout among them, exit with status 2 and a structured JSON
error on stderr.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

from .oracle import derive_table, verify_table
from .protocol import (
    CANONICAL,
    FIDELITY_ATOL,
    LITERAL,
    SCHEMA_VERSION,
    SecretSpec,
    TrialChunk,
    Variant,
    _joint_weights,
    _resolve_forced,
    alice_cbits,
    build_alice_basis,
    published_correction_table,
    random_secret,
    run_protocol,
    run_trials,
    substream,
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
    # NaN or inf would fail the norm check with a deficit (nan or inf) that
    # the JSON error could not carry
    if not np.isfinite(coeffs).all():
        _emit_error("config", f"secret coefficients must be finite, got {text!r}")
    spec = SecretSpec(variant, tuple(coeffs))
    try:
        spec.state  # checks count and norm before any output
    except NormalizationError as exc:
        if math.isinf(exc.deficit):  # finite coefficients, too heavy a weight
            _emit_error("config", f"secret coefficient weights overflow, got {text!r}")
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
        forced = int(parts[0]), int(parts[1])
    except ValueError:
        _emit_error("config", f"--forced components must be integers, got {text!r}")
    try:
        return _resolve_forced(forced, variant)
    except ValueError as exc:  # not a row of the variant
        _emit_error("config", str(exc))


def _emit_write_error(emit: str, exc: OSError | ValueError) -> None:
    reason = exc.strerror if isinstance(exc, OSError) else exc
    _emit_error("config", f"cannot write --emit file {emit!r}: {reason}")


@contextlib.contextmanager
def _output(emit: str | None) -> Iterator[Callable[[str], None]]:
    """A writer to stdout and, with ``--emit``, to that file too.

    Each piece reaches the file (flushed) before stdout, so a path that
    cannot be opened or written (an empty one included) gives the ``config``
    error before stdout gets that piece; stdout keeps only the pieces
    written before it.
    """
    if emit is None:
        yield sys.stdout.write
        return
    try:
        fh = open(emit, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
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


# what json.dumps writes for the magnitudes whose repr is not JSON
_FLOAT_CONSTANTS = {"nan": "NaN", "inf": "Infinity"}
# every bit of a float64 but its sign
_MAGNITUDE = np.int64(2**63 - 1)
# stands in for every per-trial leaf of a template's tree; JSON writes it escaped
_LEAF = "\x00"
# the transcript fields that differ between a run's trials, besides its floats
_PER_TRIAL = {"alice_outcome", "alice_cbits", "charlie_bit", "messages", "correction"}
# transcripts per joined text and write; a 32-trial text, or a whole chunk's,
# raised a JSON run's peak RSS by a further 0.3 to 0.5 MiB
_JOINED = 8
# what precedes each transcript, and the run's first one
_SEPARATOR, _FIRST_SEPARATOR = ",\n    ", "\n    "


def _float_texts(floats: np.ndarray) -> np.ndarray:
    """The JSON text of each float of an array, an object array of its
    shape: one ``float.__repr__`` per distinct magnitude's bit pattern, and
    a negative float's text is ``-`` and its magnitude's, so 0.0 and -0.0,
    which compare equal, keep their own texts. A NaN of either sign is NaN.
    """
    bits = floats.view(np.int64)
    magnitudes, inverse = np.unique(bits & _MAGNITUDE, return_inverse=True)
    # a list's repr writes each float's repr, one C call for all of them
    texts = repr(magnitudes.view(np.float64).tolist())[1:-1].split(", ")
    texts = list(map(_FLOAT_CONSTANTS.get, texts, texts))
    signed = ["-" + text if text != "NaN" else text for text in texts]
    table = np.array(texts + signed, dtype=object)
    return table[inverse.reshape(floats.shape) + len(texts) * (bits < 0)]


def _skeleton(value, every: bool):
    """``value`` with its float leaves, or with ``every`` all its leaves,
    replaced by ``_LEAF``."""
    if isinstance(value, dict):
        return {key: _skeleton(item, every) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_skeleton(item, every) for item in value]
    return _LEAF if every or isinstance(value, float) else value


def _template(chunk: TrialChunk, seed: int, secret, forced) -> list[str]:
    """The literal pieces of a run's transcripts, one more than their
    leaves, from the ``to_dict`` tree (the one definition of their shape) of
    trial 0 made alone: ``random_secret`` on ``substream(seed, 0)`` unless
    ``secret`` is fixed, then ``run_protocol``, sampled or forced as the run
    is. Its outcomes and fidelity must be those of row 0 of ``chunk``, or
    RuntimeError is raised. Only the floats and the ``_PER_TRIAL`` fields
    are leaves between pieces: the leaves that every trial of a run shares
    are in the pieces.
    """
    rng = substream(seed, 0)
    if secret is None:
        secret = random_secret(chunk.variant, rng)
    t = run_protocol(secret, rng=rng, forced=forced)
    row = (chunk.alice_outcomes[0], chunk.charlie_bits[0], chunk.fidelities[0])
    if (t.alice_outcome, t.charlie_bit, t.fidelity) != row:
        raise RuntimeError(f"the kernel's trial 0 {row} differs from run_protocol's")
    tree = {key: _skeleton(v, key in _PER_TRIAL) for key, v in t.to_dict().items()}
    return _json_text(tree, 2).split(json.dumps(_LEAF))


def _transcripts(chunk: TrialChunk, pieces: list[str], first: bool) -> Iterator[str]:
    """``_json_text(t.to_dict(), 2)`` for the Transcript t ``run_protocol``
    makes of each trial of ``chunk``, each after its separator (the run's
    first one if ``first``), joined ``_JOINED`` trials at a time. One object
    array holds the chunk's texts: ``pieces`` in the even columns, and in
    the odd ones the leaves in document order, from the chunk's arrays: its
    floats as one array (``_float_texts``), the other leaves one row per
    outcome, bit and correction. A trial whose leaf count does not fit the
    pieces raises ValueError instead of writing other bytes.
    """
    coefficients = chunk.coefficients
    weights = _joint_weights(chunk.alice_branches).reshape(len(coefficients), -1)
    pairs = np.column_stack([coefficients, chunk.bob_before, chunk.bob_after])
    floats = np.column_stack([pairs.view(np.float64), chunk.fidelities, weights])
    string, row, others, rows = encode_basestring_ascii, {}, [], []
    trials = zip(chunk.alice_outcomes, chunk.charlie_bits, chunk.corrections)
    for i, b, correction in trials:
        key = i, b, correction.labels  # a correction need not be hashable
        if key not in row:
            row[key] = len(others)
            cbits = string(alice_cbits(i))
            others.append((
                int.__repr__(i), cbits, int.__repr__(b), cbits, string(str(b)),
                *map(string, correction.labels),
            ))
        rows.append(row[key])
    count, width = len(pieces) - 1, floats.shape[1]
    for leaves in others:
        if width + len(leaves) != count:
            raise ValueError(
                f"{width + len(leaves)} leaves do not fit a {count}-leaf template"
            )
    table = np.empty((len(others), count - width), dtype=object)
    table[:] = others
    texts = _float_texts(floats)
    split = 2 * coefficients.shape[1]  # the trial's other leaves follow the secret
    cells = np.empty((len(rows), 2 * count + 1), dtype=object)
    cells[:, 0::2] = pieces
    cells[:, 0] = _SEPARATOR + pieces[0]
    if first:
        cells[0, 0] = _FIRST_SEPARATOR + pieces[0]
    cells[:, 1::2] = np.concatenate(
        [texts[:, :split], table[rows], texts[:, split:]], axis=1
    )
    for start in range(0, len(cells), _JOINED):
        yield "".join(cells[start : start + _JOINED].ravel().tolist())


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
    name = chunk.variant.value
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
                [trial, name, i, alice_cbits(i), b, str(p), repr(f)]
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
        elif args.format == "csv":
            write(_csv_payload([_RUN_CSV_HEADER]))
        chunks = run_trials(variant, seed, args.trials, secret=secret, forced=forced)
        for chunk in chunks:
            if args.format == "json":
                if not fidelities:
                    pieces = _template(chunk, seed, secret, forced)
                for text in _transcripts(chunk, pieces, not fidelities):
                    write(text)
                counts.update(zip(chunk.alice_outcomes, chunk.charlie_bits))
            else:
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


@functools.cache
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
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError as exc:
        # the reader closed stdout (``| head``): what is still buffered, and
        # the flush at exit, go to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _emit_error("config", f"cannot write to stdout: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
