import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ghzsplit import oracle
from ghzsplit.oracle import (
    MATCH,
    MISMATCH,
    PHASE_ONLY_MATCH,
    TEST_RANDOM_SECRETS,
    TEST_SEED,
    _all_rows,
    _basis_anomalies,
    _class_images,
    _class_mass,
    _derived_table,
    _image_sign,
    _preimage_index,
    _solutions_for_row,
    _test_secrets,
    derive_corrections,
    derive_table,
    random_arbitrary_secret,
    verify_span,
    verify_table,
)
from ghzsplit.protocol import (
    CANONICAL,
    ENCODINGS,
    LITERAL,
    SecretSpec,
    Variant,
    VARIANT_SPECS,
    build_alice_basis,
    build_secret,
    published_correction_table,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import NORM_ATOL, OrthonormalBasis, StateVector, _every_pauli

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

    @pytest.mark.parametrize(
        "outcome,bit,message",
        [(16, 0, "outcome 16 out of range [0, 16) for three-a"),
         (-1, 0, "outcome -1 out of range [0, 16) for three-a"),
         (0, 2, "bit 2 out of range [0, 2)")],
    )
    def test_row_out_of_range_rejected(self, outcome, bit, message):
        with pytest.raises(ValueError) as exc:
            derive_corrections(Variant.THREE_A, outcome, bit)
        assert str(exc.value) == message

    @pytest.mark.parametrize("row", [(16, 0), (-1, 1), (0, 2), (1.5, 0), (0, True)])
    def test_row_rule_is_run_protocols(self, row):
        # one rule checks a row here and in a forced run, with one message
        with pytest.raises(ValueError) as ours:
            derive_corrections(Variant.THREE_A, *row)
        with pytest.raises(ValueError) as run:
            run_protocol(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)), forced=row)
        assert str(ours.value) == str(run.value)

    @pytest.mark.parametrize(
        "outcome,bit,name",
        [(1.5, 0, "outcome"), (True, 0, "outcome"), ("3", 0, "outcome"),
         (0, 1.0, "bit"), (0, False, "bit")],
    )
    def test_row_must_be_integers(self, outcome, bit, name):
        # 1.5 raised numpy's IndexError
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            derive_corrections(Variant.THREE_A, outcome, bit)

    def test_row_numpy_integers_accepted(self):
        got = derive_corrections(Variant.THREE_A, np.int64(8), np.uint8(0))
        assert got == derive_corrections(Variant.THREE_A, 8, 0)

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


class TestSignedSearch:
    """Each solution of a row and its sign come from one stacked gather."""

    CASES = [(v, e) for v in ALL_VARIANTS for e in ENCODINGS]

    @pytest.mark.parametrize(
        "variant,encoding", CASES, ids=[f"{v.value}-{e}" for v, e in CASES]
    )
    def test_signs_match_dense_products(self, variant, encoding):
        # every row and every candidate against P.matrix() @ image == ±target
        images, target = _class_images(variant, build_alice_basis(variant, encoding))
        candidates = _every_pauli(VARIANT_SPECS[variant].bob_qubits)[0]
        dense = np.array([p.matrix() for p in candidates])
        seen = set()
        for key in _all_rows(variant):
            signed = _solutions_for_row(images[key], target, candidates)
            products = dense @ images[key]
            expected = [
                1 if (m == target).all() else -1 if (m == -target).all() else 0
                for m in products
            ]
            assert [signed.get(p, 0) for p in candidates] == expected, key
            assert list(signed) == [p for p in candidates if p in signed], key
            one_by_one = [_image_sign(p, images[key], target) for p in signed]
            assert one_by_one == list(signed.values()), key
            seen.update(expected)
        assert seen == {-1, 0, 1}

    @pytest.fixture
    def row_calls(self, monkeypatch):
        """Calls of the row lookup and of the one-string sign check, with the
        preimage index's cache empty at the start."""
        calls = {"_solutions_for_row": [], "_image_sign": []}
        for name, log in calls.items():
            original = getattr(oracle, name)

            def counting(*args, _original=original, _log=log):
                _log.append(args)
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                held = vars(module).get(name)
                if module_name.startswith("ghzsplit") and held is original:
                    monkeypatch.setattr(module, name, counting)
        oracle._preimage_index.cache_clear()
        yield calls
        oracle._preimage_index.cache_clear()

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_derive_table_evaluates_once_per_row(self, variant, row_calls):
        table = derive_table(variant)
        rows = 2 * VARIANT_SPECS[variant].num_outcomes  # 32, 32 and 8
        lookups = row_calls["_solutions_for_row"]
        assert len(lookups) == rows == len(table.solutions)
        widths = {len(args[2]) for args in lookups}
        assert widths == {4 ** VARIANT_SPECS[variant].bob_qubits}
        for encoding in ENCODINGS:
            verify_table(variant, encoding=encoding)
        assert len(lookups) == (1 + len(ENCODINGS)) * rows
        # one index per variant per process, shared by both encodings
        assert oracle._preimage_index.cache_info().misses == 1
        # no second evaluation per solution to recover its sign
        assert row_calls["_image_sign"] == []


class TestPreimageIndex:
    """Every row's solutions are one coset of the class stabilizer S, so one
    lookup in a per-variant index of 64 preimages finds them."""

    STABILIZER_ORDER = {Variant.THREE_A: 2, Variant.THREE_B: 2, Variant.FOUR: 8}
    CASES = [(v, e) for v in ALL_VARIANTS for e in ENCODINGS]

    @staticmethod
    def row_data(variant, encoding=CANONICAL):
        images, target = _class_images(variant, build_alice_basis(variant, encoding))
        candidates = _every_pauli(VARIANT_SPECS[variant].bob_qubits)[0]
        return images, target, candidates

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_keys_are_cosets_of_the_stabilizer(self, variant):
        _, target, candidates = self.row_data(variant)
        index = _preimage_index(target.shape, target.tobytes())
        assert len(index) == 64
        assert {len(hits) for hits in index.values()} == {
            self.STABILIZER_ORDER[variant]
        }
        # each signed candidate gives one key; each key lists in candidate order
        signed = [hit for hits in index.values() for hit in hits]
        every = [(i, s) for i in range(len(candidates)) for s in (1, -1)]
        assert sorted(signed) == sorted(every)
        assert all(list(hits) == sorted(hits) for hits in index.values())

    @pytest.mark.parametrize(
        "variant,encoding", CASES, ids=[f"{v.value}-{e}" for v, e in CASES]
    )
    def test_every_row_finds_a_key(self, variant, encoding):
        images, target, _ = self.row_data(variant, encoding)
        index = _preimage_index(target.shape, target.tobytes())
        for key in _all_rows(variant):
            assert images[key].tobytes() in index, key

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_one_entry_perturbation_finds_no_solution(self, variant):
        images, target, candidates = self.row_data(variant)
        for key in _all_rows(variant):
            for entry in np.ndindex(target.shape):
                pre = images[key].copy()
                pre[entry] += 1
                assert _solutions_for_row(pre, target, candidates) == {}, (key, entry)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_refuses_anything_but_int64_of_the_target_shape(self, variant):
        images, target, candidates = self.row_data(variant)
        pre = images[0, 0]
        bad = [
            (pre.astype(np.float64), target),  # equal values, never cast
            (pre, target.astype(np.float64)),
            (pre.astype(np.int32), target),
            (pre.tolist(), target),
            (pre[:-1], target),
            (pre.reshape(-1), target),
            (pre.reshape(-1), target.reshape(-1)),
            (pre[:, None], target[:, None]),
        ]
        for image, targets in bad:
            with pytest.raises(ValueError, match="int64 array of the target's"):
                _solutions_for_row(image, targets, candidates)
        narrower = _every_pauli(VARIANT_SPECS[variant].bob_qubits - 1)[0]
        with pytest.raises(ValueError, match="rows"):
            _solutions_for_row(pre, target, narrower)

    def test_returned_solutions_are_copies(self):
        images, target, candidates = self.row_data(Variant.FOUR)
        first = _solutions_for_row(images[0, 0], target, candidates)
        assert len(first) == 8
        expected = dict(first)
        first.clear()
        again = _solutions_for_row(images[0, 0], target, candidates)
        assert again == expected
        again[candidates[0]] = 1
        assert _solutions_for_row(images[0, 0], target, candidates) == expected

    def test_index_is_built_lazily(self):
        # neither the import nor the benchmark's set-up cache fills build one
        src = str(Path(oracle.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import ghzsplit.cli\n"
            "from ghzsplit import oracle, protocol\n"
            "for v in protocol.Variant:\n"
            "    protocol.build_channel(v)\n"
            "    protocol.published_correction_table(v)\n"
            "    protocol.build_alice_basis(v)\n"
            "    for e in protocol.ENCODINGS:\n"
            "        protocol.build_alice_basis(v, e)\n"
            "print(oracle._preimage_index.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"


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
        # verify_table's anomaly and row checks, on a basis with one vector
        # duplicated
        bad = OrthonormalBasis(
            _duplicated_first_vector(build_alice_basis(Variant.THREE_A).vectors),
            validate=False,
        )
        anomalies = _basis_anomalies(bad)
        assert any(a["kind"] == "duplicated_basis_vector" for a in anomalies)
        derived = _derived_table(Variant.THREE_A, bad)
        table = published_correction_table(Variant.THREE_A)
        assert any(table[key] not in sols for key, sols in derived.solutions.items())

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


class TestTestSecrets:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_random_rows_are_random_secrets(self, variant):
        # the one stacked draw gives, bit for bit, the rows of as many
        # random_secret calls on the same generator
        rng = substream(TEST_SEED, ALL_VARIANTS.index(variant))
        drawn = np.array(
            [random_secret(variant, rng).coefficients for _ in range(TEST_RANDOM_SECRETS)]
        )
        rows = _test_secrets(variant)[-TEST_RANDOM_SECRETS:]
        np.testing.assert_array_equal(rows.view(np.uint64), drawn.view(np.uint64))

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_rows_are_the_frozen_test_secrets(self, variant, reference):
        # one normal(size=(secrets, 2 * count)) reads the stream of 0.1.0's
        # one random_secret call per secret
        ref = reference("oracle")
        specs = ref._test_secrets(
            ref.Variant(variant.value), TEST_RANDOM_SECRETS, TEST_SEED
        )
        want = np.array([spec.coefficients for spec in specs])
        rows = _test_secrets(variant)
        np.testing.assert_array_equal(rows.view(np.uint64), want.view(np.uint64))


class TestVerifySpan:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_span_report(self, variant):
        report = verify_span(variant)
        assert report.max_valid_deficit <= 1e-9
        assert report.min_invalid_out_of_span > 1e-6
        assert len(report.valid_deficits) == 10
        assert len(report.invalid_out_of_span) == 10

    @pytest.mark.parametrize(
        "counts", [{}, {"valid_trials": 1, "invalid_trials": 1}],
        ids=["default", "one-each"],
    )
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_report_is_the_frozen_report(self, variant, counts, reference):
        # the stacked secret draw and projection give 0.1.0's masses bit for bit
        ref = reference("oracle")
        want = ref.verify_span(ref.Variant(variant.value), **counts)
        got = verify_span(variant, **counts)
        for name in ("valid_deficits", "invalid_out_of_span"):
            assert [x.hex() for x in getattr(got, name)] == [
                x.hex() for x in getattr(want, name)
            ], name

    @pytest.mark.parametrize("valid, invalid", [(0, 3), (3, 0), (0, 0)])
    def test_needs_secrets_on_both_sides(self, valid, invalid):
        # the report's worst deficit and least escape need one secret each
        with pytest.raises(ValueError, match=f"got {valid} valid and {invalid}"):
            verify_span(Variant.FOUR, valid_trials=valid, invalid_trials=invalid)

    @pytest.mark.parametrize(
        "valid, invalid, name",
        [(1.5, 1, "valid_trials"), (True, 1, "valid_trials"),
         (1, "2", "invalid_trials"), (1, 2.0, "invalid_trials")],
    )
    def test_counts_must_be_integers(self, valid, invalid, name):
        # 1.5 raised TypeError from range, and True ran one trial
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            verify_span(Variant.FOUR, valid_trials=valid, invalid_trials=invalid)

    def test_arbitrary_secret_is_outside_class(self):
        rng = substream(43, 0)
        for variant in ALL_VARIANTS:
            state = random_arbitrary_secret(variant, rng)
            assert state.num_qubits == VARIANT_SPECS[variant].secret_qubits
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_in_class_state_not_arbitrary(self):
        # a state fully inside the class must never be returned; the redraw
        # loop keys on class mass, spot-check the mass computation instead
        s = np.sqrt(0.5)
        inside = StateVector([s, 0, 0, 0, 0, 0, 0, s])
        assert _class_mass(Variant.THREE_A, inside.amplitudes) == pytest.approx(1.0)
        outside = StateVector(np.eye(8)[0b010])
        assert _class_mass(Variant.THREE_A, outside.amplitudes) == pytest.approx(0.0)
        # |0000>, |0011>, |1100> and |1111>
        four_inside = StateVector([0.5, 0, 0, 0.5] + [0] * 8 + [0.5, 0, 0, 0.5])
        assert _class_mass(Variant.FOUR, four_inside.amplitudes) == pytest.approx(1.0)
        # |0000> is half of the class vector |0000> + |0011>
        four_half = StateVector(np.eye(16)[0b0000])
        assert _class_mass(Variant.FOUR, four_half.amplitudes) == pytest.approx(0.5)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_in_class_secrets_have_unit_class_mass(self, variant):
        rng = substream(44, 0)
        for _ in range(200):
            secret = build_secret(random_secret(variant, rng))
            assert abs(_class_mass(variant, secret.amplitudes) - 1.0) <= NORM_ATOL


def _duplicated_first_vector(vectors):
    return (vectors[1], *vectors[1:])


class TestVariantByName:
    """The oracle's entry points take a variant's name as its Variant."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_name_gives_the_variants_documents(self, variant):
        # the derived and verified documents raised AttributeError in to_dict()
        name = variant.value
        derived = derive_table(name).preferred_table()
        assert derived.to_dict() == derive_table(variant).preferred_table().to_dict()
        assert derived.variant is variant
        report = verify_table(name, encoding=LITERAL)
        assert report.to_dict() == verify_table(variant, encoding=LITERAL).to_dict()
        assert derive_corrections(name, 1, 1) == derive_corrections(variant, 1, 1)
        assert verify_span(name).variant is variant

    @pytest.mark.parametrize("bad", ["five", 3])
    @pytest.mark.parametrize(
        "entry",
        [
            derive_table,
            verify_table,
            verify_span,
            lambda variant: derive_corrections(variant, 0, 0),
        ],
        ids=["derive_table", "verify_table", "verify_span", "derive_corrections"],
    )
    def test_what_is_no_variant_rejected(self, entry, bad):
        # a bare KeyError, or "is not in list" from verify_span
        with pytest.raises(ValueError, match="unknown variant"):
            entry(bad)


class TestExactOracleAgainstReference:
    """The integer oracle grades every row as the frozen sampled one does."""

    CASES = [(v, e) for v in ALL_VARIANTS for e in ENCODINGS] + [
        (Variant.THREE_A, "duplicated")
    ]

    @staticmethod
    def bases(variant, encoding, reference):
        ref_protocol = reference("protocol")
        ref_variant = ref_protocol.Variant(variant.value)
        if encoding != "duplicated":
            return (
                build_alice_basis(variant, encoding),
                ref_protocol.build_alice_basis(ref_variant, encoding),
            )
        ref_basis = ref_protocol.build_alice_basis(ref_variant)
        return (
            OrthonormalBasis(
                _duplicated_first_vector(build_alice_basis(variant).vectors),
                validate=False,
            ),
            # the reference's bases still name the qubits they measure
            reference("statevec").OrthonormalBasis(
                ref_basis.target_qubits,
                _duplicated_first_vector(ref_basis.vectors),
                validate=False,
            ),
        )

    @pytest.mark.parametrize(
        "variant,encoding", CASES, ids=[f"{v.value}-{e}" for v, e in CASES]
    )
    def test_rows_match_reference(self, variant, encoding, reference):
        # a built-in encoding goes through verify_table; the duplicated
        # basis, which no caller can pass to it, through _derived_table
        ref_oracle = reference("oracle")
        ref_variant = reference("protocol").Variant(variant.value)
        basis, ref_basis = self.bases(variant, encoding, reference)
        theirs = ref_oracle.verify_table(ref_variant, basis=ref_basis)
        derived = _derived_table(variant, basis)
        ref_derived = ref_oracle.derive_table(ref_variant, basis=ref_basis)
        table = published_correction_table(variant)

        def labels(paulis):
            return [p.labels for p in paulis]

        for ref_row in theirs.rows:
            key = (ref_row.alice_outcome, ref_row.charlie_bit)
            assert labels(derived.solutions[key]) == labels(ref_row.solutions), key
            assert labels(derived.exact[key]) == labels(ref_derived.exact[key]), key
            if table[key] not in derived.solutions[key]:
                status = MISMATCH
            else:
                status = MATCH if table[key] in derived.exact[key] else PHASE_ONLY_MATCH
            assert status == ref_row.status, key
        if encoding == "duplicated":  # the defect reaches the verdicts
            assert any(r.status == MISMATCH for r in theirs.rows)
            return
        ours = verify_table(variant, encoding=encoding)
        assert len(ours.rows) == len(theirs.rows)
        for row, ref_row in zip(ours.rows, theirs.rows):
            # status, solutions, and the sampled fidelity and phase, bytewise
            key = (row.alice_outcome, row.charlie_bit)
            assert json.dumps(row.to_dict()) == json.dumps(ref_row.to_dict()), key

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_non_pauli_frame_basis_raises(self, variant):
        # rotating two basis vectors into each other keeps the basis
        # orthonormal, but its Kraus operators are no longer integral
        good = build_alice_basis(variant)
        c, s = np.cos(0.3), np.sin(0.3)
        a, b = good.vectors[0].amplitudes, good.vectors[1].amplitudes
        vectors = list(good.vectors)
        vectors[0] = StateVector(c * a + s * b)
        vectors[1] = StateVector(c * b - s * a)
        rotated = OrthonormalBasis(tuple(vectors))
        with pytest.raises(ValueError, match="integer Kraus operators"):
            _class_images(variant, rotated)
