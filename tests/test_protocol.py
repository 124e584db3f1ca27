import json

import numpy as np
import pytest

from ghzsplit.protocol import (
    CANONICAL,
    LITERAL,
    SecretSpec,
    Variant,
    VARIANT_SPECS,
    build_alice_basis,
    build_channel,
    build_secret,
    ghz_triplet,
    outcome_distribution,
    TRIAL_CHUNK,
    published_correction_table,
    random_secret,
    run_protocol,
    run_trials,
    substream,
)
from ghzsplit.statevec import NormalizationError, OutOfSpanError, StateVector

THREE_VARIANTS = [Variant.THREE_A, Variant.THREE_B]
ALL_VARIANTS = list(Variant)


def variant_ids(variants):
    return [v.value for v in variants]


class TestChannels:
    CHANNEL_KETS = {
        Variant.THREE_A: ("000000", "010110", "101001", "111111"),
        Variant.THREE_B: ("000000", "010011", "101100", "111111"),
        Variant.FOUR: ("000000", "000111", "111000", "111111"),
    }

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_channel_amplitudes(self, variant):
        channel = build_channel(variant)
        expected = np.zeros(64)
        expected[[int(k, 2) for k in self.CHANNEL_KETS[variant]]] = 0.5
        assert np.max(np.abs(channel.amplitudes - expected)) <= 1e-15

    def test_ghz_triplet(self):
        ghz = ghz_triplet()
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(ghz.amplitudes[[0, 7]], [s, s])
        assert np.count_nonzero(ghz.amplitudes) == 2

    def test_channel_is_cached(self):
        assert build_channel(Variant.FOUR) is build_channel(Variant.FOUR)


class TestSecrets:
    def test_basis_coefficients_map_to_class_kets(self):
        state = build_secret(SecretSpec(Variant.THREE_A, (0, 1, 0, 0)))
        np.testing.assert_array_equal(
            state.amplitudes, StateVector.ket("011").amplitudes
        )
        state = build_secret(SecretSpec(Variant.THREE_B, (0, 0, 1, 0)))
        np.testing.assert_array_equal(
            state.amplitudes, StateVector.ket("110").amplitudes
        )

    def test_four_expands_two_coefficients(self):
        state = build_secret(SecretSpec(Variant.FOUR, (0.5, 0.5)))
        expected = np.zeros(16)
        expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError, match="takes 4 coefficients"):
            build_secret(SecretSpec(Variant.THREE_A, (1, 0, 0)))

    def test_three_qubit_weights_sum_to_one(self):
        with pytest.raises(NormalizationError) as exc:
            build_secret(SecretSpec(Variant.THREE_A, (1, 1, 0, 0)))
        assert exc.value.deficit == pytest.approx(1.0)

    def test_four_weights_sum_to_one_half(self):
        with pytest.raises(NormalizationError) as exc:
            build_secret(SecretSpec(Variant.FOUR, (1, 0)))
        assert exc.value.deficit == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(NormalizationError):
            build_secret(SecretSpec(Variant.THREE_A, (bad, 0, 0, 0)))

    @pytest.mark.parametrize("huge", [1e200, complex(1e308, 1e308)])
    def test_overflowing_weight_rejected(self, huge):
        # |c|**2 beyond the float range was a bare OverflowError
        with pytest.raises(NormalizationError) as exc:
            build_secret(SecretSpec(Variant.FOUR, (huge, 0)))
        assert exc.value.deficit == float("inf")

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_random_secret_is_valid(self, variant):
        rng = substream(17, 0)
        spec = random_secret(variant, rng)
        state = build_secret(spec)  # would raise on a bad draw
        assert state.num_qubits == VARIANT_SPECS[variant].secret_qubits

    def test_random_secret_deterministic(self):
        a = random_secret(Variant.THREE_A, substream(17, 3))
        b = random_secret(Variant.THREE_A, substream(17, 3))
        assert a == b
        c = random_secret(Variant.THREE_A, substream(17, 4))
        assert a != c


class TestAliceBasis:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_canonical_is_orthonormal(self, variant):
        basis = build_alice_basis(variant)
        assert basis.gram_defects(1e-12) == []
        assert len(basis.vectors) == VARIANT_SPECS[variant].num_outcomes

    def test_three_a_vector_one(self):
        basis = build_alice_basis(Variant.THREE_A)
        expected = StateVector.from_terms(
            5, {"00000": 0.5, "01101": -0.5, "10010": 0.5, "11111": -0.5}
        )
        np.testing.assert_allclose(
            basis.vectors[1].amplitudes, expected.amplitudes, atol=1e-15
        )

    def test_three_a_vector_four_flips_last_qubit(self):
        basis = build_alice_basis(Variant.THREE_A)
        expected = StateVector.from_terms(
            5, {"00001": 0.5, "01100": 0.5, "10011": 0.5, "11110": 0.5}
        )
        np.testing.assert_allclose(
            basis.vectors[4].amplitudes, expected.amplitudes, atol=1e-15
        )

    @pytest.mark.parametrize(
        "variant", THREE_VARIANTS, ids=variant_ids(THREE_VARIANTS)
    )
    def test_literal_encoding_swaps_outcome_labels(self, variant):
        canonical = build_alice_basis(variant, CANONICAL)
        literal = build_alice_basis(variant, LITERAL)
        differing = {
            i
            for i in range(16)
            if np.max(
                np.abs(literal.vectors[i].amplitudes - canonical.vectors[i].amplitudes)
            )
            > 1e-12
        }
        assert differing == {1, 2, 5, 6, 9, 10, 13, 14}
        # same vectors as a set: the literal form only permutes labels
        for i in differing:
            partner = i ^ 0b11  # swaps the two phase bits when they differ
            np.testing.assert_allclose(
                literal.vectors[i].amplitudes,
                canonical.vectors[partner].amplitudes,
                atol=1e-15,
            )
        assert literal.gram_defects(1e-12) == []

    def test_four_literal_duplicates_last_vector(self):
        literal = build_alice_basis(Variant.FOUR, LITERAL)
        np.testing.assert_array_equal(
            literal.vectors[3].amplitudes, literal.vectors[2].amplitudes
        )
        defects = literal.gram_defects(1e-12)
        assert [(i, j) for i, j, _ in defects] == [(2, 3)]

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="encoding"):
            build_alice_basis(Variant.THREE_A, "verbose")

    @pytest.mark.parametrize("encoding", [CANONICAL, LITERAL])
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_bits_match_reference(self, variant, encoding, reference):
        # the frame rule against the frozen gate-by-gate and term-table
        # builder, signed zeros included
        ref = reference("protocol")
        got = build_alice_basis(variant, encoding).matrix()
        want = ref.build_alice_basis(ref.Variant(variant.value), encoding).matrix()
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPublishedTables:
    @pytest.mark.parametrize(
        "variant,expected",
        [(Variant.THREE_A, 32), (Variant.THREE_B, 32), (Variant.FOUR, 8)],
        ids=variant_ids(ALL_VARIANTS),
    )
    def test_row_counts(self, variant, expected):
        assert len(published_correction_table(variant)) == expected

    @pytest.mark.parametrize(
        "variant,outcome,bit,labels",
        [
            (Variant.THREE_A, 0, 0, ("I", "I", "I")),
            (Variant.THREE_A, 8, 1, ("iY", "I", "I")),
            (Variant.THREE_A, 15, 1, ("X", "iY", "X")),
            (Variant.THREE_B, 8, 0, ("X", "X", "I")),
            (Variant.THREE_B, 15, 0, ("X", "iY", "iY")),
            (Variant.FOUR, 3, 1, ("X", "iY", "Z", "I")),
        ],
    )
    def test_spot_rows(self, variant, outcome, bit, labels):
        assert published_correction_table(variant)[(outcome, bit)].labels == labels

    def test_missing_row_raises(self):
        with pytest.raises(KeyError, match="no row"):
            published_correction_table(Variant.FOUR)[(7, 0)]

    def test_to_dict_cbits(self):
        doc = published_correction_table(Variant.FOUR).to_dict()
        assert doc["source"] == "published"
        assert [r["alice_cbits"] for r in doc["rows"][:2]] == ["0000", "0000"]
        assert doc["rows"][-1]["alice_cbits"] == "0011"


class TestRunProtocol:
    def test_forced_basis_secret_round_trip(self):
        spec = SecretSpec(Variant.THREE_A, (1, 0, 0, 0))
        t = run_protocol(spec, forced=(0, 0))
        assert t.alice_cbits == "0000"
        assert t.charlie_bit == 0
        assert str(t.correction) == "I*I*I"
        assert t.fidelity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            t.bob_state_after.amplitudes,
            StateVector.ket("000").amplitudes,
            atol=1e-12,
        )

    def test_messages_shape(self):
        t = run_protocol(SecretSpec(Variant.FOUR, (0.5, 0.5)), forced=(2, 1))
        assert t.messages == {"alice_to_bob": "0010", "charlie_to_bob": "1"}

    @pytest.mark.parametrize(
        "variant",
        [Variant.THREE_A, Variant.FOUR],
        ids=["three-a", "four"],
    )
    def test_published_table_round_trips(self, variant):
        # the published rows for these variants are all usable as corrections
        vs = VARIANT_SPECS[variant]
        rng = substream(23, 0)
        for spec in (random_secret(variant, rng) for _ in range(3)):
            for outcome in range(vs.num_outcomes):
                for bit in (0, 1):
                    t = run_protocol(spec, forced=(outcome, bit))
                    assert t.fidelity >= 1.0 - 1e-9

    def test_three_b_plus_branch_round_trips(self):
        rng = substream(23, 1)
        spec = random_secret(Variant.THREE_B, rng)
        for outcome in range(16):
            t = run_protocol(spec, forced=(outcome, 0))
            assert t.fidelity >= 1.0 - 1e-9

    def test_three_b_minus_branch_fails_as_published(self):
        # regression pin on real behavior: every published minus-branch row
        # of this variant applies the wrong sign correction
        spec = SecretSpec(Variant.THREE_B, (0.5, 0.5, 0.5, 0.5))
        for outcome in range(16):
            t = run_protocol(spec, forced=(outcome, 1))
            assert t.fidelity < 1.0 - 1e-9

    def test_raw_state_secret_needs_variant(self):
        state = build_secret(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)))
        with pytest.raises(ValueError, match="explicit variant"):
            run_protocol(state, forced=(0, 0))
        t = run_protocol(state, variant=Variant.THREE_A, forced=(0, 0))
        assert t.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_raw_state_qubit_count_checked(self):
        with pytest.raises(ValueError, match="qubits"):
            run_protocol(
                StateVector.ket("00"), variant=Variant.THREE_A, forced=(0, 0)
            )

    def test_variant_contradiction_rejected(self):
        spec = SecretSpec(Variant.THREE_A, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="contradicts"):
            run_protocol(spec, variant=Variant.THREE_B, forced=(0, 0))

    def test_needs_some_outcome_source(self):
        with pytest.raises(ValueError, match="need rng, seed, or forced"):
            run_protocol(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)))

    def test_out_of_class_secret_rejected(self):
        # |010> lies outside the spanned class of this variant
        with pytest.raises(OutOfSpanError):
            run_protocol(
                StateVector.ket("010"), variant=Variant.THREE_A, seed=0
            )

    def test_seeded_runs_are_reproducible(self):
        spec = SecretSpec(Variant.THREE_A, (0.5, 0.5, 0.5, 0.5))
        a = run_protocol(spec, seed=7)
        b = run_protocol(spec, seed=7)
        assert a.to_dict() == b.to_dict()
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_transcript_serialization_shape(self):
        t = run_protocol(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)), forced=(3, 1))
        doc = t.to_dict()
        assert doc["schema_version"] == 1
        assert doc["variant"] == "three-a"
        assert doc["secret"]["kind"] == "coefficients"
        assert doc["correction"] == list(t.correction.labels)
        assert len(doc["probabilities"]) == 32
        assert len(doc["bob_state_after"]) == 8
        json.dumps(doc)  # must be JSON clean

    def test_raw_state_secret_serialization(self):
        state = build_secret(SecretSpec(Variant.FOUR, (0.5, 0.5)))
        t = run_protocol(state, variant=Variant.FOUR, forced=(0, 0))
        doc = t.to_dict()
        assert doc["secret"]["kind"] == "state"
        assert len(doc["secret"]["amplitudes"]) == 16

    def test_linearity_on_superposition(self):
        # uniform branch probabilities make recovery exactly linear in the
        # secret, collapse renormalization included
        t = run_protocol(SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0)), forced=(5, 1))
        e1 = run_protocol(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)), forced=(5, 1))
        e3 = run_protocol(SecretSpec(Variant.THREE_A, (0, 0, 1, 0)), forced=(5, 1))
        combined = (
            0.6 * e1.bob_state_after.amplitudes
            + 0.8j * e3.bob_state_after.amplitudes
        )
        np.testing.assert_allclose(t.bob_state_after.amplitudes, combined, atol=1e-9)


def _same_bits(got, want):
    """Two transcripts agree bit for bit, signed zeros included."""
    assert got.secret.to_dict() == want.secret.to_dict()
    assert (got.alice_outcome, got.charlie_bit) == (
        want.alice_outcome,
        want.charlie_bit,
    )
    assert got.correction.labels == want.correction.labels
    for state in ("bob_state_before", "bob_state_after"):
        a = getattr(got, state).amplitudes.view(np.uint64)
        b = getattr(want, state).amplitudes.view(np.uint64)
        assert np.array_equal(a, b), state
    assert got.fidelity.hex() == want.fidelity.hex()
    assert [w.probability.hex() for w in got.probabilities] == [
        w.probability.hex() for w in want.probabilities
    ]


class TestTrialKernel:
    """The batched kernel against the frozen scalar ``run_protocol``."""

    SEED = 5150
    TRIALS = 1000

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_sampled_trials_match_reference(self, variant, reference):
        ref = reference("protocol")
        ref_variant = ref.Variant(variant.value)
        got = [
            t
            for chunk in run_trials(variant, self.SEED, self.TRIALS)
            for t in chunk.transcripts()
        ]
        assert len(got) == self.TRIALS > 2 * TRIAL_CHUNK
        for trial, t in enumerate(got):
            rng = ref.substream(self.SEED, trial)
            want = ref.run_protocol(ref.random_secret(ref_variant, rng), rng=rng)
            _same_bits(t, want)
            if trial < 50:  # the kernel's one-trial case
                rng = substream(self.SEED, trial)
                _same_bits(run_protocol(random_secret(variant, rng), rng=rng), want)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_every_forced_row_matches_reference(self, variant, reference):
        ref = reference("protocol")
        ref_variant = ref.Variant(variant.value)
        for row in published_correction_table(variant).rows:
            (chunk,) = run_trials(variant, self.SEED, 3, forced=row)
            for trial, t in enumerate(chunk.transcripts()):
                spec = ref.random_secret(ref_variant, ref.substream(self.SEED, trial))
                want = ref.run_protocol(spec, forced=row)
                _same_bits(t, want)
                _same_bits(run_protocol(t.secret, forced=row), want)

    def test_fixed_secret_every_trial(self):
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5j))
        chunks = list(run_trials(Variant.FOUR, 1, TRIAL_CHUNK + 1, secret=spec))
        assert [len(c.fidelities) for c in chunks] == [TRIAL_CHUNK, 1]
        for trial, t in enumerate(chunks[1].transcripts(), start=TRIAL_CHUNK):
            _same_bits(t, run_protocol(spec, rng=substream(1, trial)))


class TestOutcomeDistribution:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_uniform_for_random_secret(self, variant):
        rng = substream(29, 0)
        dist = outcome_distribution(random_secret(variant, rng))
        expected = 1.0 / (2 * VARIANT_SPECS[variant].num_outcomes)
        assert len(dist) == 2 * VARIANT_SPECS[variant].num_outcomes
        for w in dist:
            assert w.probability == pytest.approx(expected, abs=1e-12)

    def test_matches_transcript_probabilities(self):
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5))
        dist = outcome_distribution(spec)
        t = run_protocol(spec, forced=(1, 0))
        assert t.probabilities == dist

    def test_sampler_visits_both_charlie_bits(self):
        spec = SecretSpec(Variant.THREE_A, (0.5, 0.5, 0.5, 0.5))
        rng = substream(31, 0)
        seen_bits = {run_protocol(spec, rng=rng).charlie_bit for _ in range(24)}
        assert seen_bits == {0, 1}


class TestSubstream:
    def test_matches_seed_sequence(self):
        a = substream(5, 1, 2).normal(size=3)
        b = np.random.default_rng([5, 1, 2]).normal(size=3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_give_distinct_streams(self):
        a = substream(5, 1).normal(size=4)
        b = substream(5, 2).normal(size=4)
        assert not np.allclose(a, b)


class TestVariantParse:
    def test_parse_round_trip(self):
        assert Variant.parse("three-b") is Variant.THREE_B

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Variant.parse("five")
