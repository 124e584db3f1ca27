"""``run --format csv|text`` rows against their per-trial definitions.

``cli._run_rows`` writes a chunk's rows from one object array, with one
text per distinct row of the correction table and one per distinct
fidelity. These tests compare it byte for byte with the rows that
``csv.writer`` and the per-trial text line give of each trial alone.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math

import numpy as np
import pytest

from ghzsplit import cli, protocol
from ghzsplit.oracle import derive_table
from ghzsplit.protocol import (
    CANONICAL,
    LITERAL,
    TRIAL_BLOCK,
    CorrectionTable,
    Variant,
    alice_cbits,
    build_alice_basis,
)
from ghzsplit.statevec import _PAULI_BITS, PauliString

# fidelities whose texts are easy to get wrong: a repr with an exponent, the
# floats next to 1.0, and both signed zeros
EDGE_FIDELITIES = [1.0, 0.9999999999999991, 1.0000000000000009, 5.6e-12, 0.0, -0.0]
# characters that csv.writer's QUOTE_MINIMAL would quote
QUOTED = (",", '"', "\r", "\n")


def _trials(chunk, first: int):
    """(trial number, outcome, bit, correction, fidelity) of each trial."""
    trials = zip(itertools.count(first), chunk.rows.tolist(), chunk.fidelities)
    for trial, row, f in trials:
        i, b = divmod(row, 2)
        yield trial, i, b, chunk.table[i, b], f


def _fields(chunk, first: int) -> list[list]:
    """Each trial's csv fields, as the header names them."""
    name = chunk.variant.value
    return [
        [trial, name, i, alice_cbits(i), b, str(p), repr(f)]
        for trial, i, b, p, f in _trials(chunk, first)
    ]


def _csv_rows(chunk, first: int) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_fields(chunk, first))
    return buf.getvalue()


def _text_lines(chunk, first: int) -> str:
    return "".join(
        f"trial {trial}: outcome={i} cbits={alice_cbits(i)} charlie={b} correction={p} "
        f"fidelity={f:.12f}\n"
        for trial, i, b, p, f in _trials(chunk, first)
    )


def assert_rows(chunk, first: int) -> None:
    assert cli._run_rows(chunk, first, "csv") == _csv_rows(chunk, first)
    assert cli._run_rows(chunk, first, "text") == _text_lines(chunk, first)
    for fields in _fields(chunk, first):
        for field in map(str, fields):
            assert not any(c in field for c in QUOTED), field


def _hand_built(variant: Variant, trials: list[tuple]):
    """A chunk of ``variant`` whose trial k is ``trials[k]``: (outcome,
    bit, correction labels, fidelity), with a hand-built table of just the
    trials' rows; trials of one row give it one correction."""
    chunk = next(protocol.run_trials(variant, 0, len(trials)))
    rows = {}
    for i, b, labels, _ in trials:
        assert rows.setdefault((i, b), PauliString(labels)).labels == tuple(labels)
    table = CorrectionTable(variant, "hand-built", rows)
    rows = np.array([2 * i + b for i, b, _, _ in trials])
    distinct, inverse = protocol._distinct_rows(rows, table)
    return dataclasses.replace(
        chunk,
        rows=rows,
        table=table,
        distinct=distinct,
        inverse=inverse,
        fidelities=[f for *_, f in trials],
    )


X, Z, I = "X", "Z", "I"  # noqa: E741


@pytest.mark.parametrize("first", [0, 1, TRIAL_BLOCK, 10**6 + 7])
def test_hand_built_rows_match_each_trial_alone(first):
    # rows repeat and interleave; one outcome takes both bits, and two
    # rows share one correction, so neither the outcome nor the correction
    # alone tells these rows apart
    rows = [
        (5, 0, (X, I, Z)),
        (5, 1, (I, Z, X)),
        (5, 0, (X, I, Z)),
        (12, 1, ("iY", I, I)),
        (5, 1, (I, Z, X)),
        (7, 0, (I, Z, X)),
        (12, 1, ("iY", I, I)),
        (0, 0, (I, I, I)),
    ]
    fidelities = itertools.cycle(EDGE_FIDELITIES)
    trials = [(*row, f) for row, f in zip(rows * 3, fidelities)]
    chunk = _hand_built(Variant.THREE_A, trials)
    assert_rows(chunk, first)
    assert len(cli._distinct_rows(chunk.rows, chunk.table)[0]) == 5


def test_every_row_text_and_edge_fidelity_of_each_variant():
    # every outcome and bit of a variant, each fidelity on every row
    for variant in Variant:
        rows = sorted(protocol.published_correction_table(variant).rows.items())
        trials = [
            (i, b, correction.labels, f)
            for f in EDGE_FIDELITIES
            for (i, b), correction in rows
        ]
        assert_rows(_hand_built(variant, trials), 3)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("forced", [None, (1, 1)], ids=["sampled", "forced"])
def test_kernel_chunks_match_each_trial_alone(variant, forced):
    chunks = list(protocol.run_trials(variant, 21, TRIAL_BLOCK + 1, forced=forced))
    first = 0
    for chunk in chunks:
        assert_rows(chunk, first)
        first += len(chunk.fidelities)


def test_csv_run_finds_distinct_rows_once_per_block(monkeypatch, capsys):
    # the kernel finds each block's distinct rows, and the csv writer reads
    # them off the chunk: three blocks, three calls
    calls = []
    original = protocol._distinct_rows

    def counting(rows, table):
        calls.append(len(rows))
        return original(rows, table)

    for module in (protocol, cli):
        monkeypatch.setattr(module, "_distinct_rows", counting)
    trials = 2 * TRIAL_BLOCK + 1
    argv = ["run", "--variant", "three-a", "--trials", str(trials), "--format", "csv"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("\n") == trials + 1
    assert calls == [TRIAL_BLOCK, TRIAL_BLOCK, 1]


def test_three_b_minus_rows_take_many_fidelities():
    # the published three-b table's minus rows leave fidelities below 1, a
    # different one for nearly every secret
    chunk = next(protocol.run_trials(Variant.THREE_B, 5, TRIAL_BLOCK))
    low = [f for f in chunk.fidelities if f < 0.999]
    assert len(set(low)) > 20
    assert_rows(chunk, TRIAL_BLOCK)


def test_fidelity_texts_made_once_per_distinct_value():
    # repeated values, both signed zeros, NaN of both signs and both
    # infinities: each trial gets its own value's repr or .12f text, from
    # one call per distinct bit pattern
    nan, inf = math.nan, math.inf
    values = [0.0, -0.0, nan, inf, 0.5, 0.0, -nan, -inf, -0.0, 0.5, nan, 1.0]
    for text in (repr, "{:.12f}".format):
        calls = []

        def counting(value, text=text):
            calls.append(value)
            return text(value)

        assert cli._texts_once(values, counting).tolist() == list(map(text, values))
        assert len(calls) == 8
    assert cli._texts_once([0.0, -0.0, 0.0], repr).tolist() == ["0.0", "-0.0", "0.0"]
    trials = [(0, 0, ("I", "I"), f) for f in values]
    assert_rows(_hand_built(Variant.FOUR, trials), 7)


def test_no_run_field_can_hold_a_quoted_character():
    # the texts a csv run field is made of: variant names, Alice's bits,
    # Pauli labels joined by "*", and the digits, signs, point, exponent
    # and special values of a float's repr
    parts = [v.value for v in Variant]
    parts += [alice_cbits(i) for i in range(32)] + list(_PAULI_BITS) + ["*"]
    parts += [repr(float(x)) for x in ("inf", "-inf", "nan", "-1e-300", "1.5e300")]
    for part in parts:
        assert not any(c in part for c in QUOTED), part


def _export_fields(variant: Variant) -> list[str]:
    """Every text an ``export --format csv`` field of ``variant`` is made
    of: the variant, encoding and source names, each basis component's
    bitstring and the ``repr`` of its amplitude's parts, and each table
    row's bits and joined labels, published and derived."""
    fields = [variant.value]
    for encoding in (CANONICAL, LITERAL):
        vectors = build_alice_basis(variant, encoding).vectors
        width = vectors[0].num_qubits
        fields.append(encoding)
        for vec in vectors:
            for k, amp in enumerate(vec.amplitudes.tolist()):
                fields += [format(k, f"0{width}b"), repr(amp.real), repr(amp.imag)]
    tables = [protocol.published_correction_table(variant)]
    tables.append(derive_table(variant).preferred_table())
    for table in tables:
        fields.append(table.source)
        for i, b, p in table.sorted_rows():
            fields += [str(i), alice_cbits(i), str(b), str(p)]
    return fields


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_no_export_field_can_hold_a_quoted_character(variant):
    # so a plain comma join writes csv.writer's bytes
    for field in _export_fields(variant):
        assert not any(c in field for c in QUOTED), field


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_export_csv_is_csv_writers_bytes(variant, capsys):
    # each export command's csv, read back, has the header's field count
    # on every row, and csv.writer writes it in the same bytes
    commands = [["--what", "basis"], ["--what", "basis", "--paper-literal"]]
    commands += [["--what", "table", "--source", s] for s in ("published", "derived")]
    for command in commands:
        argv = ["export", "--variant", variant.value, "--format", "csv", *command]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 4 and {len(row) for row in rows} == {len(rows[0])}
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == out


def test_distinct_rows_row_order_and_index():
    # the distinct rows in row order, each with its table's own correction
    trials = [
        (3, 0, (X, X, I), 1.0),
        (1, 1, (I, I, Z), 1.0),
        (3, 0, (X, X, I), 1.0),
        (3, 1, (X, X, I), 1.0),
        (1, 1, (I, I, Z), 1.0),
    ]
    chunk = _hand_built(Variant.THREE_A, trials)
    keys, rows = cli._distinct_rows(chunk.rows, chunk.table)
    assert [(i, b, p.labels) for i, b, p in keys] == [
        (1, 1, (I, I, Z)), (3, 0, (X, X, I)), (3, 1, (X, X, I))
    ]
    assert all(p is chunk.table.rows[i, b] for i, b, p in keys)
    assert rows.tolist() == [1, 0, 1, 2, 0]
