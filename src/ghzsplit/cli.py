"""Command line interface.

Three subcommands:

* ``run``: execute protocol trials and emit transcripts plus a fidelity
  summary. Exit status 0 only if every trial meets the fidelity threshold.
* ``verify``: audit the published correction tables against brute-force
  derived solutions. Exit status 0 only if no row mismatches and the active
  basis has no Gram defects.
* ``export``: dump a measurement basis or a correction table.

Every command writes through one writer, to stdout and to the ``--emit``
file. Every JSON document, the error on stderr too, comes out in the bytes
``json.dumps(document, indent=2)`` gives, from ``_json_text``, which joins
each dict's and list's item texts once, writes leaf items inline and never
runs json's pure-Python indenting encoder. A ``verify`` report's rows and
an ``export --what table`` document's are written by ``_with_rows``
without a dict per row: each row fills one format, cut once per document
from the first row's ``to_dict`` keys, with value texts made straight from
the ``RowFinding`` or table row, and each Pauli's label-list text is made
once per (labels, depth) per document. ``run`` makes its trials one
``run_trials`` block of 1024 at a time, whatever the format, and writes
each block's csv rows, text lines or JSON transcripts before the next
block is made. Transcripts are filled straight from the block's arrays
between literal pieces of text, cut once per run from the ``to_dict`` tree
of trial 0 remade by ``substream``, ``random_secret`` and ``run_protocol``;
the pieces hold the leaves every trial of the run shares. JSON encodes a
block 128 trials at a time: a slice's pieces and leaf texts are one object
array, joined and written a few trials at a time, and its floats get one
``repr`` per distinct magnitude (a negative float is ``-`` and its
magnitude's text). A block's csv rows or text lines are one object array
too, (trials, 4), joined once: the trial number, the row text, made once
per distinct table row, the fidelity text, made once per distinct value,
and the line end. A trial's table row is one integer (``TrialChunk.rows``);
the kernel finds a block's distinct rows (``_distinct_rows``) for csv and
text, JSON a slice's.

Output is deterministic: no timestamps, hostnames, or filesystem paths appear
in any document, so identical invocations are byte-identical. Configuration
errors, a closed stdout among them, exit with status 2 and a structured JSON
error on stderr. So does a numpy that gives other bits than the ones the
output is made from (``NumpyBitsError``), as an ``environment`` error that
names numpy's version.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

from ._numpy_bits import NumpyBitsError
from .oracle import RowFinding, derive_table, verify_table
from .protocol import (
    CANONICAL,
    FIDELITY_ATOL,
    LITERAL,
    SCHEMA_VERSION,
    SecretSpec,
    TrialChunk,
    Variant,
    _distinct_rows,
    _joint_weights,
    _resolve_forced,
    _table_row,
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
    print(_json_text(doc), file=sys.stderr)
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
        _emit_error("config", f"--forced {exc}")


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


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# the JSON text of each leaf type json.dumps writes without a look inside;
# a subclass, an IntEnum or np.float64 say, is not one of them
_LEAF_TEXTS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(doc, indent=2)`` writes it ``depth`` levels
    inside ``doc``, without json's pure-Python indenting encoder: a leaf by
    its exact type (``_LEAF_TEXTS``), a dict with str keys only, a list or
    a tuple as its items' texts joined once, a leaf item's text written
    inline. Any other value goes to ``json.dumps``, and no JSON string holds
    a raw newline, so each of its line breaks just gains the outer indent:
    json's bytes and errors stay. Values are fresh trees: no cycle checks."""
    kind = type(value)
    leaf = _LEAF_TEXTS.get(kind)
    if leaf is not None:
        return leaf(value)
    texts = _LEAF_TEXTS
    if kind is dict and all(type(key) is str for key in value):
        items = [
            encode_basestring_ascii(key)
            + ": "
            + (
                texts[type(item)](item)
                if type(item) in texts
                else _json_text(item, depth + 1)
            )
            for key, item in value.items()
        ]
        return _joined(items, depth, "{}")
    if kind is list or kind is tuple:
        items = [
            texts[type(item)](item)
            if type(item) in texts
            else _json_text(item, depth + 1)
            for item in value
        ]
        return _joined(items, depth)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _joined(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A list's, or with ``brackets`` ``"{}"`` a dict's, item texts as
    ``json.dumps(indent=2)`` joins them ``depth`` levels deep."""
    if not items:
        return brackets
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


# what json.dumps writes for the magnitudes whose repr is not JSON
_FLOAT_CONSTANTS = {"nan": "NaN", "inf": "Infinity"}
# every bit of a float64 but its sign
_MAGNITUDE = np.int64(2**63 - 1)
# stands in for every per-trial leaf of a template's tree, and for each
# per-row value of a verify report's or a table's rows
_LEAF = "\x00"
# the stand-in as JSON writes it, escaped: where a template is cut
_STAND_IN = json.dumps(_LEAF)
# the transcript fields that differ between a run's trials, besides its floats
_PER_TRIAL = {"alice_outcome", "alice_cbits", "charlie_bit", "messages", "correction"}
# transcripts per joined text and write; a 32-trial text, or a 128-trial one,
# raised a JSON run's peak RSS by a further 0.3 to 0.5 MiB
_JOINED = 8
# transcripts encoded as one cell array: a whole 1024-trial block made JSON
# runs slower, as the joint weights of one three-qubit block took about 2.5
# times as long as those of eight 128-trial slices
_ENCODED = 128
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
    NumpyBitsError is raised. Only the floats and the ``_PER_TRIAL`` fields
    are leaves between pieces: the leaves that every trial of a run shares
    are in the pieces.
    """
    rng = substream(seed, 0)
    if secret is None:
        secret = random_secret(chunk.variant, rng)
    t = run_protocol(secret, rng=rng, forced=forced)
    row = (*divmod(int(chunk.rows[0]), 2), chunk.fidelities[0])
    if (t.alice_outcome, t.charlie_bit, t.fidelity) != row:
        raise NumpyBitsError(f"the kernel's trial 0 {row} differs from run_protocol's")
    tree = {key: _skeleton(v, key in _PER_TRIAL) for key, v in t.to_dict().items()}
    return _json_text(tree, 2).split(_STAND_IN)


def _transcripts(chunk: TrialChunk, pieces: list[str], first: bool) -> Iterator[str]:
    """``_json_text(t.to_dict(), 2)`` for the Transcript t ``run_protocol``
    makes of each trial of ``chunk``, each after its separator (the run's
    first one if ``first``), joined ``_JOINED`` trials at a time. Each
    slice of ``_ENCODED`` trials is encoded when the last one's texts are
    out: one object array holds the slice's texts, ``pieces`` in the even
    columns, and in the odd ones the leaves in document order, from the
    chunk's arrays: the slice's floats as one array (``_float_texts``), the
    other leaves one row per distinct table row (``_distinct_rows``). A
    trial whose leaf count does not fit the pieces raises ValueError instead
    of writing other bytes.
    """
    for lo in range(0, len(chunk.fidelities), _ENCODED):
        yield from _encoded(chunk, slice(lo, lo + _ENCODED), pieces, first)
        first = False


def _encoded(
    chunk: TrialChunk, part: slice, pieces: list[str], first: bool
) -> Iterator[str]:
    """``_transcripts`` of the slice ``part`` of ``chunk``, one cell array."""
    coefficients = chunk.coefficients[part]
    weights = _joint_weights(chunk.alice_branches[part], chunk.alice_kets)
    weights = weights.reshape(len(coefficients), -1)
    before, after = chunk.bob_before[part], chunk.bob_after[part]
    pairs = np.column_stack([coefficients, before, after])
    floats = np.column_stack([pairs.view(np.float64), chunk.fidelities[part], weights])
    string, others = encode_basestring_ascii, []
    keys, rows = _distinct_rows(chunk.rows[part], chunk.table)
    for i, b, correction in keys:
        cbits = string(alice_cbits(i))
        others.append((
            int.__repr__(i), cbits, int.__repr__(b), cbits, string(str(b)),
            *map(string, correction.labels),
        ))
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


def _csv_payload(rows) -> str:
    """Each row's fields' ``str`` joined by commas: no field can hold a
    delimiter, a quote or a line break, so these are ``csv.writer``'s bytes."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


_RUN_CSV_HEADER = [
    "trial",
    "variant",
    "alice_outcome",
    "alice_cbits",
    "charlie_bit",
    "correction",
    "fidelity",
]


# per format: a trial number's text, a row's text and a fidelity's text
_ROW_TEXTS = {
    "csv": (str, ",{variant},{i},{cbits},{b},{correction},", repr),
    "text": (
        "trial {}".format,
        ": outcome={i} cbits={cbits} charlie={b} correction={correction} fidelity=",
        "{:.12f}".format,
    ),
}


def _texts_once(floats: list[float], text: Callable[[float], str]) -> np.ndarray:
    """``text`` of each float, an object array: one call per distinct bit
    pattern, so 0.0 and -0.0, which compare equal, keep their own texts."""
    bits, inverse = np.unique(np.array(floats).view(np.int64), return_inverse=True)
    texts = np.array(list(map(text, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse]


def _run_rows(chunk: TrialChunk, first: int, fmt: str) -> str:
    """CSV rows or text lines of one chunk, whose first trial is ``first``,
    joined once from a (trials, 4) object array: the trial number, the row
    text, made once per distinct table row (the kernel's ``distinct``), the
    fidelity's text, made once per distinct value (``_texts_once``), and the
    line end. No csv field can hold a delimiter, a quote or a line break, so
    ``csv.writer`` would write every one as it is.
    """
    number, row, fidelity = _ROW_TEXTS[fmt]
    name = chunk.variant.value
    texts = [
        row.format(variant=name, i=i, cbits=alice_cbits(i), b=b, correction=p)
        for i, b, p in chunk.distinct
    ]
    cells = np.empty((len(chunk.rows), 4), dtype=object)
    cells[:, 0] = list(map(number, range(first, first + len(cells))))
    cells[:, 1] = np.array(texts, dtype=object)[chunk.inverse]
    cells[:, 2] = _texts_once(chunk.fidelities, fidelity)
    cells[:, 3] = "\n"
    return "".join(cells.ravel().tolist())


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
        # the first block, and a JSON run's template, are made before the
        # head is written: an error in them leaves stdout empty
        chunks = run_trials(variant, seed, args.trials, secret=secret, forced=forced)
        first = next(chunks)
        if args.format == "json":
            pieces = _template(first, seed, secret, forced)
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
        for chunk in itertools.chain([first], chunks):
            if args.format == "json":
                for text in _transcripts(chunk, pieces, not fidelities):
                    write(text)
                counts.update(chunk.rows.tolist())
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
                    {"alice_outcome": row // 2, "charlie_bit": row % 2, "count": n}
                    for row, n in sorted(counts.items())
                ],
            }
            write('\n  ],\n  "summary": ' + _json_text(summary, 1) + "\n}\n")
        elif args.format == "text":
            write(
                f"summary: trials={args.trials} min_fidelity={low:.12f} "
                f"mean_fidelity={mean:.12f} ok={'yes' if ok else 'no'}\n"
            )
    return 0 if ok else 1


class _LabelTexts(dict):
    """One document's Pauli label-list texts, keyed by (labels, depth), each
    made once: ``_json_text(list(labels), depth)``, the labels all str."""

    def __missing__(self, key):
        labels, depth = key
        text = self[key] = _joined(list(map(encode_basestring_ascii, labels)), depth)
        return text


def _finding_texts(row: RowFinding, labels: _LabelTexts, depth: int) -> tuple:
    """The value texts of ``row.to_dict()`` ``depth`` levels deep, in its
    key order."""
    inner = depth + 1
    phase = row.phase
    return (
        int.__repr__(row.alice_outcome),
        int.__repr__(row.charlie_bit),
        encode_basestring_ascii(row.status),
        labels[row.published.labels, inner],
        _joined([labels[p.labels, inner + 1] for p in row.solutions], inner),
        _float_json(row.published_min_fidelity),
        "null"
        if phase is None
        else _joined([_float_json(phase.real), _float_json(phase.imag)], inner),
    )


def _table_row_texts(row: tuple, labels: _LabelTexts, depth: int) -> tuple:
    """The value texts of ``_table_row(row)`` ``depth`` levels deep, for a
    ``CorrectionTable.sorted_rows()`` row, in its key order."""
    outcome, bit, correction = row
    return (
        int.__repr__(outcome),
        encode_basestring_ascii(alice_cbits(outcome)),
        int.__repr__(bit),
        labels[correction.labels, depth + 1],
    )


def _with_rows(
    doc: dict,
    tables: list,
    row_dict: Callable[..., dict],
    row_texts: Callable[..., tuple],
) -> str:
    """``_json_text(doc)`` with its k-th ``_LEAF`` stand-in, the ``rows``
    entry of a report's or a table's ``_document``, written as the list of
    the dicts ``row_dict`` makes of ``tables[k]``'s rows, without making
    them. A row is one ``%`` of a format cut once per document and depth
    from the first row's dict, its values the stand-in, with the row's value
    texts (``row_texts``); a Pauli's label-list text is made once per depth
    (``_LabelTexts``). A row whose text count does not fit the format
    raises TypeError instead of writing other bytes.
    """
    pieces = _json_text(doc).split(_STAND_IN)
    if len(pieces) != len(tables) + 1:
        raise ValueError(f"{len(pieces) - 1} stand-ins for {len(tables)} row lists")
    labels, formats, out = _LabelTexts(), {}, [pieces[0]]
    for before, rows, after in zip(pieces, tables, pieces[1:]):
        # a stand-in is as deep as the line of its key is indented
        line = before.rpartition("\n")[2]
        depth = (len(line) - len(line.lstrip(" "))) // 2
        if rows and depth not in formats:
            cut = _json_text(dict.fromkeys(row_dict(rows[0]), _LEAF), depth + 1)
            formats[depth] = cut.replace("%", "%%").replace(_STAND_IN, "%s")
        texts = [formats[depth] % row_texts(row, labels, depth + 1) for row in rows]
        out += (_joined(texts, depth), after)
    return "".join(out)


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
    with _output(args.emit) as write:
        if args.format == "json":
            doc = {
                "schema_version": SCHEMA_VERSION,
                "command": "verify",
                "encoding": encoding,
                "passed": passed,
                "reports": [r._document(_LEAF) for r in reports],
            }
            rows = [r.rows for r in reports]
            write(_with_rows(doc, rows, RowFinding.to_dict, _finding_texts) + "\n")
        else:
            lines = [line for r in reports for line in _verify_text(r.to_dict())]
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
        width = basis.vectors[0].num_qubits
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "export",
            "what": "basis",
            "variant": variant.value,
            "encoding": encoding,
            "target_qubits": list(range(width)),
            "vectors": [
                {"index": i, "amplitudes": vec.amplitude_pairs()}
                for i, vec in enumerate(basis.vectors)
            ],
        }
        document = functools.partial(_json_text, doc)
        header = [
            "variant",
            "encoding",
            "vector_index",
            "component_index",
            "bitstring",
            "real",
            "imag",
        ]
        # re or im is amp != 0, signed zeros too; a float's str is its repr
        rows = (
            [variant.value, encoding, vec["index"], k, format(k, f"0{width}b"), re, im]
            for vec in doc["vectors"]
            for k, (re, im) in enumerate(vec["amplitudes"])
            if re or im
        )
    else:
        if args.source == "derived":
            table = derive_table(variant).preferred_table()
        else:  # published, also when --source is not given
            table = published_correction_table(variant)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "export",
            "what": "table",
            **table._document(_LEAF),
        }
        document = functools.partial(
            _with_rows, doc, [table.sorted_rows()], _table_row, _table_row_texts
        )
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
            for row in table.to_dict()["rows"]
        )
    with _output(args.emit) as write:
        if args.format == "json":
            write(document() + "\n")
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
    except NumpyBitsError as exc:
        _emit_error(
            "environment",
            f"numpy {np.__version__} does not give the bits this output is "
            f"made from: {exc}",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
