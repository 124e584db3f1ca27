import json

import numpy as np
import pytest

from ghzsplit.oracle import (
    MATCH,
    MISMATCH,
    PHASE_ONLY_MATCH,
    _class_mass,
    derive_corrections,
    derive_table,
    random_arbitrary_secret,
    verify_span,
    verify_table,
)
from ghzsplit.protocol import (
    LITERAL,
    Variant,
    VARIANT_SPECS,
    build_alice_basis,
    build_secret,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import NORM_ATOL, OrthonormalBasis, StateVector

ALL_VARIANTS = list(Variant)
IDS = [v.value for v in ALL_VARIANTS]


class TestDeriveCorrections:
    @pytest.mark.parametrize(
        "variant,outcome,bit,labels,count",
        [
            (Variant.THREE_A, 0, 0, ("I", "I", "I"), 2),
            (Variant.THREE_A, 8, 0, ("X", "I", "I"), 2),
            (Variant.THREE_B, 8, 0, ("X", "X", "I"), 2),
            (Variant.FOUR, 3, 0, ("X", "iY", "I", "I"), 8),
        ],
    )
    def test_known_rows(self, variant, outcome, bit, labels, count):
        sols = derive_corrections(variant, outcome, bit)
        assert len(sols) == count
        assert labels in {s.labels for s in sols}

    def test_three_a_identity_row_partner(self):
        # Bob's two same-triplet qubits stay correlated, so Z on both of
        # them acts trivially on the support and doubles every solution
        sols = {s.labels for s in derive_corrections(Variant.THREE_A, 0, 0)}
        assert sols == {("I", "I", "I"), ("I", "Z", "Z")}

    def test_three_b_identity_row_partner(self):
        sols = {s.labels for s in derive_corrections(Variant.THREE_B, 0, 0)}
        assert sols == {("I", "I", "I"), ("Z", "Z", "I")}


class TestDeriveTable:
    # minus-branch rows where the collapse leaves a -1 global phase that no
    # real Pauli string can cancel; recovery there is exact only up to phase
    NO_EXACT_ROWS = {
        Variant.THREE_A: {(i, 1) for i in range(8, 16)},
        Variant.THREE_B: {(i, 1) for i in (4, 5, 6, 7, 12, 13, 14, 15)},
        Variant.FOUR: set(),
    }

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_solution_multiplicity_is_constant(self, variant):
        table = derive_table(variant)
        expected = 8 if variant is Variant.FOUR else 2
        assert {len(s) for s in table.solutions.values()} == {expected}
        for key, exact in table.exact.items():
            assert set(exact) <= set(table.solutions[key])
        no_exact = {key for key, exact in table.exact.items() if not exact}
        assert no_exact == self.NO_EXACT_ROWS[variant]

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_preferred_pick_prefers_exact_solutions(self, variant):
        table = derive_table(variant)
        preferred = table.preferred_table()
        for key, sols in table.solutions.items():
            pool = table.exact[key] or sols
            assert preferred[key].labels in {p.labels for p in pool}

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_preferred_table_round_trips_everywhere(self, variant):
        # the derived table must work even where the published one fails
        table = derive_table(variant).preferred_table()
        assert table.source == "derived"
        rng = substream(41, 0)
        secrets = [random_secret(variant, rng) for _ in range(3)]
        for outcome in range(VARIANT_SPECS[variant].num_outcomes):
            for bit in (0, 1):
                for spec in secrets:
                    t = run_protocol(spec, forced=(outcome, bit), table=table)
                    assert t.fidelity >= 1.0 - 1e-9

    def test_to_dict_serializes(self):
        doc = derive_table(Variant.FOUR).to_dict()
        assert doc["kind"] == "derived_table"
        assert len(doc["rows"]) == 8
        assert all(len(r["solutions"]) == 8 for r in doc["rows"])
        json.dumps(doc)


class TestVerifyTable:
    def test_three_a_statuses(self):
        report = verify_table(Variant.THREE_A)
        assert report.status_counts == {
            MATCH: 24,
            PHASE_ONLY_MATCH: 8,
            MISMATCH: 0,
        }
        phase_rows = {
            (r.alice_outcome, r.charlie_bit)
            for r in report.rows
            if r.status == PHASE_ONLY_MATCH
        }
        assert phase_rows == {(i, 1) for i in range(8, 16)}
        for r in report.rows:
            if r.status == PHASE_ONLY_MATCH:
                assert r.phase == pytest.approx(-1.0 + 0j, abs=1e-9)
        assert report.passed

    def test_three_b_minus_branch_mismatches(self):
        report = verify_table(Variant.THREE_B)
        assert report.status_counts == {
            MATCH: 16,
            PHASE_ONLY_MATCH: 0,
            MISMATCH: 16,
        }
        mismatch_rows = {
            (r.alice_outcome, r.charlie_bit)
            for r in report.rows
            if r.status == MISMATCH
        }
        assert mismatch_rows == {(i, 1) for i in range(16)}
        assert not report.passed
        # published corrections on those rows genuinely fail to recover
        for r in report.rows:
            if r.status == MISMATCH:
                assert r.published_min_fidelity < 1.0 - 1e-9
                assert r.published.labels not in {s.labels for s in r.solutions}

    def test_four_canonical_all_match(self):
        report = verify_table(Variant.FOUR)
        assert report.status_counts == {MATCH: 8, PHASE_ONLY_MATCH: 0, MISMATCH: 0}
        assert report.basis_anomalies == ()
        assert report.passed

    def test_four_literal_flags_duplicate_vector(self):
        report = verify_table(Variant.FOUR, encoding=LITERAL)
        kinds = {a["kind"] for a in report.basis_anomalies}
        assert kinds == {"duplicated_basis_vector"}
        assert report.basis_anomalies[0]["indices"] == [2, 3]
        broken = {
            (r.alice_outcome, r.charlie_bit)
            for r in report.rows
            if r.status == MISMATCH
        }
        assert broken == {(3, 0), (3, 1)}
        assert not report.passed

    @pytest.mark.parametrize(
        "variant", [Variant.THREE_A, Variant.THREE_B], ids=["three-a", "three-b"]
    )
    def test_encoding_conflict_reported(self, variant):
        report = verify_table(variant)
        (note,) = report.formula_inconsistencies
        assert note["kind"] == "phase_exponent_swap_in_literal_encoding"
        assert note["indices"] == [1, 2, 5, 6, 9, 10, 13, 14]
        assert [1, 2] in note["relabeling"]

    def test_four_encoding_conflict_reported(self):
        report = verify_table(Variant.FOUR)
        (note,) = report.formula_inconsistencies
        assert note["kind"] == "duplicated_basis_vector_in_literal_encoding"
        assert note["indices"] == [3]

    def test_corrupted_basis_fails_verification(self):
        good = build_alice_basis(Variant.THREE_A)
        vectors = list(good.vectors)
        vectors[0] = vectors[1]  # duplicate one vector
        bad = OrthonormalBasis(good.target_qubits, tuple(vectors), validate=False)
        report = verify_table(Variant.THREE_A, basis=bad)
        assert any(
            a["kind"] == "duplicated_basis_vector" for a in report.basis_anomalies
        )
        assert report.status_counts[MISMATCH] > 0
        assert not report.passed

    def test_report_round_trips_through_json(self):
        report = verify_table(Variant.THREE_B)
        doc = report.to_dict()
        clone = json.loads(json.dumps(doc))
        assert clone == doc
        assert clone["status_counts"]["MISMATCH"] == 16
        assert clone["passed"] is False

    def test_reports_are_deterministic(self):
        a = verify_table(Variant.THREE_A).to_dict()
        b = verify_table(Variant.THREE_A).to_dict()
        assert json.dumps(a) == json.dumps(b)


class TestVerifySpan:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_span_report(self, variant):
        report = verify_span(variant)
        assert report.passed
        assert report.max_valid_deficit <= 1e-9
        assert report.min_invalid_out_of_span > 1e-6
        assert len(report.valid_deficits) == 10
        assert len(report.invalid_out_of_span) == 10
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("valid, invalid", [(0, 3), (3, 0), (0, 0)])
    def test_needs_secrets_on_both_sides(self, valid, invalid):
        # the report's worst deficit and least escape need one secret each
        with pytest.raises(ValueError, match=f"got {valid} valid and {invalid}"):
            verify_span(Variant.FOUR, valid_trials=valid, invalid_trials=invalid)

    def test_arbitrary_secret_is_outside_class(self):
        rng = substream(43, 0)
        for variant in ALL_VARIANTS:
            state = random_arbitrary_secret(variant, rng)
            assert state.num_qubits == VARIANT_SPECS[variant].secret_qubits
            assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_in_class_state_not_arbitrary(self):
        # a state fully inside the class must never be returned; the redraw
        # loop keys on class mass, spot-check the mass computation instead
        inside = StateVector.from_terms(
            3, {"000": np.sqrt(0.5), "111": np.sqrt(0.5)}
        )
        assert _class_mass(Variant.THREE_A, inside.amplitudes) == pytest.approx(1.0)
        outside = StateVector.ket("010")
        assert _class_mass(Variant.THREE_A, outside.amplitudes) == pytest.approx(0.0)
        four_inside = StateVector.from_terms(
            4, {"0000": 0.5, "0011": 0.5, "1100": 0.5, "1111": 0.5}
        )
        assert _class_mass(Variant.FOUR, four_inside.amplitudes) == pytest.approx(1.0)
        # |0000> is half of the class vector |0000> + |0011>
        four_half = StateVector.ket("0000")
        assert _class_mass(Variant.FOUR, four_half.amplitudes) == pytest.approx(0.5)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_in_class_secrets_have_unit_class_mass(self, variant):
        rng = substream(44, 0)
        for _ in range(200):
            secret = build_secret(random_secret(variant, rng))
            assert abs(_class_mass(variant, secret.amplitudes) - 1.0) <= NORM_ATOL
