"""The row writer of ``verify`` and ``export --what table`` JSON documents.

``cli._with_rows`` writes a report's or a table's rows straight from its
``RowFinding``s or ``sorted_rows()`` between pieces cut once per document.
Its bytes must be ``_json_text`` of the ``to_dict`` tree, the one definition
of the rows' shape, at every depth a document can put them.
"""

import json
import math

import pytest

from ghzsplit import cli
from ghzsplit.oracle import (
    MATCH,
    MISMATCH,
    PHASE_ONLY_MATCH,
    DiscrepancyReport,
    RowFinding,
    derive_table,
    verify_table,
)
from ghzsplit.protocol import (
    CANONICAL,
    LITERAL,
    CorrectionTable,
    Variant,
    _table_row,
    published_correction_table,
)
from ghzsplit.statevec import PauliString

P3 = PauliString(("I", "X", "Z"))
Q3 = PauliString(("iY", "I", "X"))

HAND_BUILT_ROWS = (
    # a PHASE_ONLY row whose phase holds signed zeros
    RowFinding(0, 0, PHASE_ONLY_MATCH, P3, (P3, Q3), 1.0, complex(-1.0, -0.0)),
    RowFinding(0, 1, PHASE_ONLY_MATCH, Q3, (Q3,), 0.5, complex(-0.0, 0.0)),
    RowFinding(1, 0, MISMATCH, P3, (Q3, PauliString(("Z", "Z", "I"))), 7e-07, None),
    # no solutions at all
    RowFinding(1, 1, MISMATCH, Q3, (), math.nan, None),
    RowFinding(2, 0, MATCH, P3, (P3,), -0.0, None),
    RowFinding(15, 1, MATCH, Q3, (Q3, P3), 0.9999999999999991, None),
)


def _report(rows, variant=Variant.THREE_A, encoding=CANONICAL, anomalies=()):
    return DiscrepancyReport(variant, encoding, tuple(rows), tuple(anomalies), ())


HAND_BUILT_REPORTS = [
    _report(HAND_BUILT_ROWS),
    _report(HAND_BUILT_ROWS[3:4], encoding=LITERAL),  # one MISMATCH row, no solutions
    _report(
        HAND_BUILT_ROWS[:1],
        anomalies=[
            {"kind": "unnormalized_vector", "indices": [0], "gram_entry": [1.5, -0.0]}
        ],
    ),
    _report(()),  # no rows: "rows": []
]
ONE_ROW = CorrectionTable(
    Variant.FOUR, "published", {(3, 1): PauliString(("X", "iY", "Z", "I"))}
)


def _nested(value, depth: int):
    """``value`` ``depth`` levels deep, inside alternating lists and dicts."""
    for level in range(depth):
        value = [value] if level % 2 else {"in": value}
    return value


def _verify_doc(reports, rows_of):
    return {"schema_version": 1, "reports": [rows_of(r) for r in reports]}


def _report_text(reports, depth):
    doc = _nested(_verify_doc(reports, lambda r: r._document(cli._LEAF)), depth)
    rows = [r.rows for r in reports]
    return cli._with_rows(doc, rows, RowFinding.to_dict, cli._finding_texts)


def _report_dicts_text(reports, depth):
    doc = _verify_doc(reports, DiscrepancyReport.to_dict)
    return cli._json_text(_nested(doc, depth))


def _table_text(tables, depth):
    doc = _nested({"tables": [t._document(cli._LEAF) for t in tables]}, depth)
    rows = [t.sorted_rows() for t in tables]
    return cli._with_rows(doc, rows, _table_row, cli._table_row_texts)


@pytest.mark.parametrize("depth", range(4))
class TestRowWriterMatchesJsonText:
    @pytest.mark.parametrize(
        "report", HAND_BUILT_REPORTS, ids=["six", "one", "anomaly", "none"]
    )
    def test_hand_built_report(self, report, depth):
        want = _report_dicts_text([report], depth)
        assert _report_text([report], depth) == want
        assert want == json.dumps(json.loads(want), indent=2)

    def test_hand_built_reports_in_one_document(self, depth):
        # the label texts are shared across reports, the format cut once
        reports = HAND_BUILT_REPORTS[::-1] + HAND_BUILT_REPORTS
        assert _report_text(reports, depth) == _report_dicts_text(reports, depth)

    @pytest.mark.parametrize("encoding", [CANONICAL, LITERAL])
    def test_every_variants_report(self, encoding, depth):
        reports = [verify_table(v, encoding=encoding) for v in Variant]
        assert _report_text(reports, depth) == _report_dicts_text(reports, depth)

    def test_tables(self, depth):
        tables = [ONE_ROW, CorrectionTable(Variant.FOUR, "derived", {})]
        tables += [published_correction_table(v) for v in Variant]
        tables += [derive_table(v).preferred_table() for v in Variant]
        want = cli._json_text(_nested({"tables": [t.to_dict() for t in tables]}, depth))
        assert _table_text(tables, depth) == want
        assert _table_text([ONE_ROW], depth) == cli._json_text(
            _nested({"tables": [ONE_ROW.to_dict()]}, depth)
        )


class TestRowWriterRefusesWhatDoesNotFit:
    def test_too_few_value_texts(self):
        doc = {"rows": ONE_ROW._document(cli._LEAF)}
        with pytest.raises(TypeError):
            cli._with_rows(
                doc, [ONE_ROW.sorted_rows()], _table_row, lambda *a: ("1", "2")
            )

    def test_too_many_value_texts(self):
        doc = {"rows": ONE_ROW._document(cli._LEAF)}

        def texts(row, labels, depth):
            return (*cli._table_row_texts(row, labels, depth), "5")

        with pytest.raises(TypeError):
            cli._with_rows(doc, [ONE_ROW.sorted_rows()], _table_row, texts)

    def test_a_stand_in_for_each_row_list(self):
        doc = {"a": ONE_ROW._document(cli._LEAF)}
        for tables in ([], [ONE_ROW.sorted_rows()] * 2):
            with pytest.raises(ValueError, match="stand-ins"):
                cli._with_rows(doc, tables, _table_row, cli._table_row_texts)


def test_label_texts_are_made_once_per_labels_and_depth():
    texts = cli._LabelTexts()
    first = texts[P3.labels, 2]
    assert first == cli._json_text(list(P3.labels), 2)
    assert texts[PauliString(P3.labels).labels, 2] is first
    assert texts[P3.labels, 3] == cli._json_text(list(P3.labels), 3)
    assert len(texts) == 2
