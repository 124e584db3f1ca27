import copy
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
    _alice_measurement,
    _secret_rows,
    build_alice_basis,
    build_secret,
    published_correction_table,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import (
    NORM_ATOL,
    OrthonormalBasis,
    PauliString,
    StateVector,
    _every_pauli,
)

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
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_signed_lookup_grades_as_tuple_membership(self, variant, encoding):
        # a grade by the published correction's sign in the row's signed
        # solutions is the grade by membership in its solutions and exact
        # tuples, on the canonical row the encoding's outcome map names
        derived = derive_table(variant)
        outcomes = VARIANT_SPECS[variant].outcome_map(encoding)
        report = verify_table(variant, encoding=encoding)
        assert len(report.rows) == len(derived.signed)
        for row in report.rows:
            key = (outcomes[row.alice_outcome], row.charlie_bit)
            sols, exact = derived.solutions[key], derived.exact[key]
            if row.published not in sols:
                want = MISMATCH
            elif row.published in exact:
                want = MATCH
            else:
                want = PHASE_ONLY_MATCH
            assert row.status == want, key
            assert row.solutions == sols == tuple(derived.signed[key]), key
            assert (row.phase is None) == (want != PHASE_ONLY_MATCH), key

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

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_encoding_notes_match_the_bases(self, variant):
        # the notes, read off the outcome map, against a comparison of the
        # two bases' vectors: the literal labels whose vector differs, and
        # the canonical label of the vector each one holds
        cmat = build_alice_basis(variant, CANONICAL).matrix()
        lmat = build_alice_basis(variant, LITERAL).matrix()
        moved = [i for i in range(len(lmat)) if not np.array_equal(lmat[i], cmat[i])]
        pairs = [
            [i, j] for i in moved for j in range(len(cmat))
            if np.array_equal(lmat[i], cmat[j])
        ]
        # both encodings' reports, twice each: each report its own notes
        reports = [verify_table(variant, encoding=e) for e in ENCODINGS * 2]
        (note,) = reports[0].formula_inconsistencies
        assert note["indices"] == moved
        if variant is Variant.FOUR:  # literal vector 3 repeats canonical 2
            assert note["kind"] == "duplicated_basis_vector_in_literal_encoding"
            assert pairs == [[3, 2]] and "relabeling" not in note
        else:
            assert note["relabeling"] == pairs
        for report in reports[1:]:
            assert report.formula_inconsistencies == (note,)
            assert report.formula_inconsistencies[0] is not note
            assert report.formula_inconsistencies[0]["indices"] is not note["indices"]

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_changing_a_reports_notes_leaves_the_next_report(self, variant):
        want = copy.deepcopy(verify_table(variant).to_dict())
        report = verify_table(variant)
        (note,) = report.formula_inconsistencies
        note["kind"] = "changed"
        note["indices"].append(99)
        note.setdefault("relabeling", []).append([99, 99])
        assert verify_table(variant).to_dict() == want
        assert verify_table(variant, encoding=LITERAL).formula_inconsistencies == (
            tuple(want["formula_inconsistencies"])
        )

    def test_corrupted_basis_fails_verification(self):
        # verify_table's anomaly and row checks, on a basis with one vector
        # duplicated
        bad = OrthonormalBasis(
            _duplicated_first_vector(build_alice_basis(Variant.THREE_A).vectors),
            validate=False,
        )
        anomalies = _basis_anomalies(bad)
        assert any(a["kind"] == "duplicated_basis_vector" for a in anomalies)
        solutions = _solutions_in(Variant.THREE_A, bad)
        table = published_correction_table(Variant.THREE_A)
        assert any(table[key] not in sols for key, sols in solutions.items())

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

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_stacked_grade_keeps_the_per_row_bits(self, variant, encoding, monkeypatch):
        # the reference grades each row by its own dense product; the stack
        # must give every fidelity and phase bit for bit, signed zeros too,
        # from one PauliString.matrix call per distinct published correction
        keys = _all_rows(variant)
        table = published_correction_table(variant)
        pre, secrets = oracle._sampled_rows(variant)
        outcomes = VARIANT_SPECS[variant].outcome_map(encoding)
        want = {}
        for key in keys:
            row_pre = pre[2 * outcomes[key[0]] + key[1]]  # its canonical row
            product = row_pre @ table[key].matrix().T
            overlaps = np.sum(secrets.conj() * product, axis=1)
            want[key] = np.min(np.abs(overlaps) ** 2), complex(overlaps[0])
        calls = []
        matrix = PauliString.matrix

        def counting(self):
            calls.append(self)
            return matrix(self)

        monkeypatch.setattr(PauliString, "matrix", counting)
        report = verify_table(variant, encoding=encoding)
        assert calls == list(dict.fromkeys(table[key] for key in keys))

        def bits(*floats):
            return np.array(floats, dtype=np.float64).view(np.uint64).tolist()

        for row in report.rows:
            fidelity, phase = want[(row.alice_outcome, row.charlie_bit)]
            assert bits(row.published_min_fidelity) == bits(fidelity)
            if row.status == PHASE_ONLY_MATCH:
                got = bits(row.phase.real, row.phase.imag)
                assert got == bits(phase.real, phase.imag)
            else:
                assert row.phase is None


class TestCachedStates:
    """The test secrets' states are built once per variant per process, on
    the canonical basis, read-only, for reports of either encoding."""

    CASES = [(v, e) for v in ALL_VARIANTS for e in ENCODINGS]

    @pytest.mark.parametrize(
        "variant,encoding", CASES, ids=[f"{v.value}-{e}" for v, e in CASES]
    )
    def test_cached_arrays_refuse_writes(self, variant, encoding, fresh_caches):
        verify_table(variant, encoding=encoding)
        pre, secrets = oracle._sampled_rows(variant)
        rows = len(_all_rows(variant))
        assert pre.shape[:2] == (rows, len(secrets))
        for array in (pre, secrets):
            assert not array.flags.writeable
            base = array if array.base is None else array.base
            assert not base.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
            with pytest.raises(ValueError, match="read-only"):
                array *= 2
        again = oracle._sampled_rows(variant)
        assert again[0] is pre and again[1] is secrets
        assert oracle._sampled_rows.cache_info().misses == 1

    def test_states_are_built_lazily(self):
        # neither the import nor the benchmark's set-up fills the cache
        bench = Path(__file__).resolve().parents[1] / "bench"
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(bench)!r})\n"
            "import child\n"
            "child.set_up('ghzsplit')\n"
            "from ghzsplit import oracle\n"
            "print(oracle._sampled_rows.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"


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


def _solutions_in(variant, basis):
    """Each row's signed solutions in ``basis``: ``_derived_table``'s search,
    one lookup per row in the integer images, on any basis."""
    images, target = _class_images(variant, basis)
    candidates = _every_pauli(VARIANT_SPECS[variant].bob_qubits)[0]
    return {
        key: _solutions_for_row(images[key], target, candidates)
        for key in _all_rows(variant)
    }


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
        # each row's search on the basis itself, through the integer images;
        # a built-in encoding also through verify_table, which reads the
        # literal rows off the canonical ones
        ref_oracle = reference("oracle")
        ref_variant = reference("protocol").Variant(variant.value)
        basis, ref_basis = self.bases(variant, encoding, reference)
        theirs = ref_oracle.verify_table(ref_variant, basis=ref_basis)
        signed = _solutions_in(variant, basis)
        ref_derived = ref_oracle.derive_table(ref_variant, basis=ref_basis)
        table = published_correction_table(variant)

        def labels(paulis):
            return [p.labels for p in paulis]

        for ref_row in theirs.rows:
            key = (ref_row.alice_outcome, ref_row.charlie_bit)
            solutions = list(signed[key])
            exact = [p for p, sign in signed[key].items() if sign > 0]
            assert labels(solutions) == labels(ref_row.solutions), key
            assert labels(exact) == labels(ref_derived.exact[key]), key
            if table[key] not in solutions:
                status = MISMATCH
            else:
                status = MATCH if table[key] in exact else PHASE_ONLY_MATCH
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


class TestLiteralOutcomeMap:
    """The literal basis is the canonical one relabelled: the oracle builds
    on the canonical basis alone and reads a literal row (i, b) as the
    canonical row (literal_outcomes[i], b). These build on the literal
    basis itself, which the oracle never does."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_literal_images_are_the_canonical_ones_through_the_map(self, variant):
        outcomes = list(VARIANT_SPECS[variant].literal_outcomes)
        canonical, target = _class_images(variant, build_alice_basis(variant))
        literal = build_alice_basis(variant, LITERAL)
        images, literal_target = _class_images(variant, literal)
        assert np.array_equal(literal_target, target)
        assert np.array_equal(images, canonical[outcomes])

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=IDS)
    def test_literal_branches_are_the_canonical_ones_through_the_map(self, variant):
        # Alice's branches of the test secrets, bit for bit: every later step
        # of a row's states works on its branch alone
        outcomes = list(VARIANT_SPECS[variant].literal_outcomes)
        secrets = _secret_rows(variant, _test_secrets(variant))
        canonical = _alice_measurement(variant, build_alice_basis(variant))
        literal = _alice_measurement(variant, build_alice_basis(variant, LITERAL))
        assert literal.kets.live == canonical.kets.live
        (want, want_probs), (got, probs) = (
            lifted.project(secrets) for lifted in (canonical, literal)
        )
        assert np.array_equal(got.view(np.uint64), want[:, outcomes].view(np.uint64))
        assert np.array_equal(probs.view(np.uint64), want_probs[:, outcomes].view(np.uint64))
