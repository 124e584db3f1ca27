import itertools

import numpy as np
import pytest

from ghzsplit.protocol import (
    LITERAL,
    VARIANT_SPECS,
    Variant,
    build_alice_basis,
    build_channel,
    build_secret,
    published_correction_table,
    random_secret,
    run_protocol,
    substream,
)
from ghzsplit.statevec import (
    NormalizationError,
    OrthonormalBasis,
    OutOfSpanError,
    PAULI_GATES,
    PAULI_IY,
    PauliString,
    StateVector,
    apply_pauli_string,
    basis_projection_probabilities,
    check_normalized,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    hadamard_basis,
    measure_in_basis,
    permute_qubits,
    project,
    sample_outcomes,
    tensor_product,
)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    z = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, z / np.linalg.norm(z))


class TestStateVector:
    def test_ket_is_big_endian(self):
        # leftmost symbol is qubit 0 and the most significant index bit
        assert StateVector.ket("01").amplitudes[1] == 1.0
        assert StateVector.ket("10").amplitudes[2] == 1.0
        assert StateVector.ket("110").amplitudes[6] == 1.0

    def test_from_terms_places_amplitudes(self):
        s = 1.0 / np.sqrt(2.0)
        state = StateVector.from_terms(2, {"00": s, "11": s})
        np.testing.assert_allclose(state.amplitudes, [s, 0, 0, s])

    def test_from_terms_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="does not have 2 bits"):
            StateVector.from_terms(2, {"000": 1.0})

    def test_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_negative_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="num_qubits must be at least 0, got -1"):
            StateVector(-1, np.array([1.0]))
        for count in (1.5, 1.0, True, np.bool_(True), "1"):
            with pytest.raises(ValueError, match="num_qubits must be an integer"):
                StateVector(count, np.array([1.0, 0.0]))
        # from_terms checks the count before it sizes the amplitude array
        for count, message in ((1.5, "an integer, got"), (-1, "at least 0, got")):
            with pytest.raises(ValueError, match=f"num_qubits must be {message}"):
                StateVector.from_terms(count, {})
        state = StateVector(np.int64(1), np.array([1.0, 0.0]))
        assert type(state.num_qubits) is int and state.num_qubits == 1

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_from_amplitudes_needs_a_power_of_two(self, length):
        amps = np.zeros(length, dtype=complex)
        with pytest.raises(ValueError, match=f"amplitude count {length} is not"):
            StateVector.from_amplitudes(amps)

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError) as exc:
            StateVector(1, np.array([1.0, 1.0]))
        assert exc.value.deficit == pytest.approx(np.sqrt(2.0) - 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(NormalizationError):
            StateVector(1, np.array([bad, 0.0]))

    def test_amplitudes_are_read_only(self):
        state = StateVector.ket("0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_norm_and_dim(self):
        state = StateVector.ket("010")
        assert state.dim == 8
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_pairs_round_trip(self):
        rng = np.random.default_rng(3)
        state = random_state(2, rng)
        pairs = state.amplitude_pairs()
        rebuilt = np.array([complex(re, im) for re, im in pairs])
        np.testing.assert_array_equal(rebuilt, state.amplitudes)


class TestPauliString:
    def test_str_form(self):
        assert str(PauliString(("Z", "Z", "I"))) == "Z*Z*I"

    def test_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="unknown Pauli labels"):
            PauliString(("Y",))

    def test_iy_is_exactly_real(self):
        np.testing.assert_array_equal(PAULI_IY, np.array([[0, 1], [-1, 0]]))

    @pytest.mark.parametrize("label", sorted(PAULI_GATES))
    def test_gates_are_unitary(self, label):
        g = PAULI_GATES[label]
        np.testing.assert_array_equal(g.conj().T @ g, np.eye(2))

    @pytest.mark.parametrize("label,sign", [("I", 1), ("X", 1), ("Z", 1), ("iY", -1)])
    def test_square_is_plus_minus_identity(self, label, sign):
        g = PAULI_GATES[label]
        np.testing.assert_array_equal(g @ g, sign * np.eye(2))

    def test_matrix_kron_order(self):
        m = PauliString(("Z", "X")).matrix()
        np.testing.assert_array_equal(m, np.kron(PAULI_GATES["Z"], PAULI_GATES["X"]))


class TestGateApplication:
    def test_phase_flip_on_superposition(self):
        s = 1.0 / np.sqrt(2.0)
        state = StateVector.from_terms(3, {"000": s, "100": s})
        out = apply_pauli_string(
            state.amplitudes[None], (0, 1, 2), [PauliString(("Z", "I", "I"))]
        )
        expected = StateVector.from_terms(3, {"000": s, "100": -s})
        np.testing.assert_array_equal(out[0], expected.amplitudes)

    def test_pauli_string_length_mismatch(self):
        rows = StateVector.ket("00").amplitudes[None]
        with pytest.raises(ValueError, match="Pauli factors"):
            apply_pauli_string(rows, (0,), [PauliString(("X", "X"))])

    def test_pauli_string_duplicate_targets(self):
        rows = StateVector.ket("00").amplitudes[None]
        with pytest.raises(ValueError, match="duplicate"):
            apply_pauli_string(rows, (0, 0), [PauliString(("X", "X"))])

    def test_pauli_string_qubit_out_of_range(self):
        rows = StateVector.ket("00").amplitudes[None]
        with pytest.raises(ValueError, match="out of range"):
            apply_pauli_string(rows, (0, 2), [PauliString(("I", "X"))])

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_bits_match_reference_on_every_bob_state(self, variant, reference):
        # every candidate correction on the forced Bob state of every row;
        # the bit patterns must agree, signed zeros included
        ref = reference("statevec")
        k = VARIANT_SPECS[variant].bob_qubits
        targets = tuple(range(k))
        secret = random_secret(variant, substream(2026, 0))
        candidates = list(itertools.product(("I", "X", "Z", "iY"), repeat=k))
        for row in published_correction_table(variant).rows:
            bob = run_protocol(secret, forced=row).bob_state_before
            ref_bob = ref.StateVector(k, bob.amplitudes)
            for labels in candidates:
                got = apply_pauli_string(
                    bob.amplitudes[None], targets, [PauliString(labels)]
                )
                want = ref.apply_pauli_string(
                    ref_bob, targets, ref.PauliString(labels)
                )
                assert got[0].tobytes() == want.amplitudes.tobytes(), (
                    row,
                    labels,
                )


class TestTensorAndPermute:
    def test_tensor_product_order(self):
        out = tensor_product(StateVector.ket("1"), StateVector.ket("0"))
        np.testing.assert_array_equal(out.amplitudes, StateVector.ket("10").amplitudes)

    def test_tensor_associativity(self):
        rng = np.random.default_rng(11)
        a, b, c = random_state(1, rng), random_state(2, rng), random_state(1, rng)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert left.num_qubits == right.num_qubits == 4
        assert np.max(np.abs(left.amplitudes - right.amplitudes)) <= 1e-15

    def test_tensor_needs_a_state(self):
        with pytest.raises(ValueError):
            tensor_product()

    def test_permute_moves_qubits(self):
        # output qubit i is input qubit perm[i]: |011> under (2,0,1) -> |101>
        out = permute_qubits(StateVector.ket("011"), (2, 0, 1))
        np.testing.assert_array_equal(out.amplitudes, StateVector.ket("101").amplitudes)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_qubits(StateVector.ket("00"), (0, 0))

    def test_permute_round_trip(self):
        rng = np.random.default_rng(7)
        state = random_state(3, rng)
        perm = (2, 0, 1)
        inverse = tuple(np.argsort(perm))
        back = permute_qubits(permute_qubits(state, perm), inverse)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)


class TestFidelity:
    def test_fidelity_ignores_global_phase(self):
        rng = np.random.default_rng(5)
        rows = np.array([random_state(2, rng).amplitudes for _ in range(3)])
        phases = np.exp(np.array([0.7j, -2.1j, 3.0j]))[:, None]
        fids = fidelity(rows, phases * rows)
        assert fids == [pytest.approx(1.0, abs=1e-12)] * 3


class TestOrthonormalBasis:
    def bell_basis(self):
        s = 1.0 / np.sqrt(2.0)
        make = StateVector.from_terms
        return OrthonormalBasis(
            (0, 1),
            (
                make(2, {"00": s, "11": s}),
                make(2, {"00": s, "11": -s}),
                make(2, {"01": s, "10": s}),
                make(2, {"01": s, "10": -s}),
            ),
        )

    def test_orthonormality_validated(self):
        v = StateVector.ket("0")
        with pytest.raises(ValueError, match="not orthonormal"):
            OrthonormalBasis((0,), (v, v))

    def test_validate_false_allows_defects(self):
        v = StateVector.ket("0")
        basis = OrthonormalBasis((0,), (v, v), validate=False)
        defects = basis.gram_defects()
        assert defects == [(0, 1, pytest.approx(1.0 + 0j))]

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            OrthonormalBasis((0, 0), (StateVector.ket("00"),))

    def test_vector_width_checked(self):
        with pytest.raises(ValueError, match="basis vector on"):
            OrthonormalBasis((0, 1), (StateVector.ket("0"),))

    def test_collapse_matches_manual_projection(self):
        # basis on a middle qubit: residual must equal the contracted
        # amplitudes renormalized by sqrt(p)
        rng = np.random.default_rng(21)
        state = random_state(3, rng)
        basis = hadamard_basis(1)
        tensor = state.amplitudes.reshape(2, 2, 2)
        for outcome, vec in enumerate(basis.vectors):
            projected = np.einsum("k,akc->ac", vec.amplitudes.conj(), tensor)
            p = float(np.sum(np.abs(projected) ** 2))
            result = force_basis_outcome(state.amplitudes[None], basis, outcome)
            assert result.probability[0] == pytest.approx(p, abs=1e-12)
            np.testing.assert_allclose(
                result.residual[0],
                projected.reshape(-1) / np.sqrt(p),
                atol=1e-12,
            )

    def test_complete_basis_probabilities_sum_to_one(self):
        rng = np.random.default_rng(31)
        state = random_state(3, rng)
        probs = basis_projection_probabilities(state, self.bell_basis())
        assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_span_raises(self):
        basis = OrthonormalBasis((0, 1), (StateVector.ket("00"),))
        rows = StateVector.ket("111").amplitudes[None]
        with pytest.raises(OutOfSpanError) as exc:
            force_basis_outcome(rows, basis, 0)
        assert exc.value.missing_mass == pytest.approx(1.0)
        with pytest.raises(OutOfSpanError):
            measure_in_basis(rows, basis, [np.random.default_rng(0)])

    def test_zero_probability_outcome_rejected(self):
        basis = OrthonormalBasis(
            (0, 1), (StateVector.ket("00"), StateVector.ket("01"))
        )
        rows = StateVector.ket("000").amplitudes[None]
        with pytest.raises(ValueError, match="zero probability"):
            force_basis_outcome(rows, basis, 1)

    def test_outcome_range_checked(self):
        rows = StateVector.ket("0").amplitudes[None]
        for outcome in (2, -1, 2**70):  # the last one overflows an int64
            with pytest.raises(ValueError, match=f"outcome {outcome} out of range"):
                force_hadamard_outcome(rows, 0, outcome)


class TestHadamardMeasurement:
    def test_forced_outcomes_on_plus(self):
        s = 1.0 / np.sqrt(2.0)
        plus = np.array([[s, s]], dtype=complex)
        result = force_hadamard_outcome(plus, 0, 0)
        assert result.probability[0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="zero probability"):
            force_hadamard_outcome(plus, 0, 1)

    def test_equal_split_on_basis_state(self):
        result = force_hadamard_outcome(StateVector.ket("0").amplitudes[None], 0, 1)
        assert result.probability[0] == pytest.approx(0.5, abs=1e-12)
        assert result.residual.shape == (1, 1)  # no qubit left

    def test_sampling_statistics(self):
        # p(plus) = |a + b|^2 / 2 for amplitudes (a, b); 3 sigma band
        a, b = np.sqrt(0.25), np.sqrt(0.75)
        p = abs(a + b) ** 2 / 2.0
        n = 4096
        rows = np.repeat(np.array([[a, b]], dtype=complex), n, axis=0)
        # one generator for every row: row t takes its t-th draw
        rngs = [np.random.default_rng(2024)] * n
        hits = int(np.sum(measure_in_basis(rows, hadamard_basis(0), rngs).outcome == 0))
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma

    def test_sampled_residual_consistent_with_forced(self):
        rng = np.random.default_rng(8)
        rows = random_state(2, rng).amplitudes[None]
        sampled = measure_in_basis(rows, hadamard_basis(1), [rng])
        forced = force_hadamard_outcome(rows, 1, sampled.outcome)
        np.testing.assert_allclose(sampled.residual, forced.residual, atol=1e-15)


class TestSampleOutcomes:
    @staticmethod
    def distributions():
        rng = np.random.default_rng(77)
        for k in (1, 2, 3, 4, 16, 32):
            for _ in range(60):
                p = rng.random(k) ** 4  # skewed, with tiny entries
                yield p / np.sum(p)
        # zero entries: the literal four basis vectors' squared amplitudes
        # (4 of 32 nonzero), and an outcome distribution of that basis
        four = build_alice_basis(Variant.FOUR, LITERAL)
        for vec in four.vectors:
            yield np.abs(vec.amplitudes) ** 2
        secret = build_secret(random_secret(Variant.FOUR, substream(9, 0)))
        combined = tensor_product(secret, build_channel(Variant.FOUR))
        probs = project(combined.amplitudes[None], four)[1][0]
        yield probs / np.sum(probs)
        yield np.array([0.0, 1.0, 0.0])
        yield np.array([0.5, 0.0, 0.5])

    def test_matches_generator_choice(self):
        # one random() draw per row gives the outcome choice() would pick
        # from the same generator state
        dists = list(self.distributions())
        assert any(np.any(p == 0.0) for p in dists)
        for seed, p in enumerate(dists):
            for key in range(20):
                want = substream(seed, key).choice(len(p), p=p)
                got = sample_outcomes(p, substream(seed, key).random())
                assert got == want, (seed, key, p)

    def test_rows_sample_independently(self):
        dists = [p for p in self.distributions() if len(p) == 16][:40]
        rngs = [substream(3, t) for t in range(len(dists))]
        got = sample_outcomes(np.array(dists), np.array([r.random() for r in rngs]))
        want = [substream(3, t).choice(16, p=p) for t, p in enumerate(dists)]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "p, message",
        [
            ([0.5, -0.1, 0.6], "non-negative"),
            ([0.5, 0.4], "sum to 1"),
            ([0.5, np.nan], "NaN"),
        ],
    )
    def test_rejects_what_choice_rejects(self, p, message):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError, match=message):
            sample_outcomes(np.array(p), 0.3)


class TestStackedRows:
    """A stack of amplitude rows gives, row by row, the bits each row gives
    as a one-row stack: the result does not depend on the chunking."""

    @staticmethod
    def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_measurements_match_one_row_stacks(self):
        variant = Variant.THREE_A
        basis = build_alice_basis(variant)
        rows = np.array(
            [
                tensor_product(
                    build_secret(random_secret(variant, substream(4, t))),
                    build_channel(variant),
                ).amplitudes
                for t in range(12)
            ]
        )
        alice = measure_in_basis(rows, basis, [substream(5, t) for t in range(12)])
        charlie = force_hadamard_outcome(alice.residual, 3, 1)
        for t in range(12):
            one = measure_in_basis(rows[t : t + 1], basis, [substream(5, t)])
            assert alice.outcome[t] == one.outcome[0]
            assert float(alice.probability[t]).hex() == float(one.probability[0]).hex()
            assert self.same_bits(alice.residual[t], one.residual[0])
            assert self.same_bits(alice.branches[t], one.branches[0])
            one = force_hadamard_outcome(one.residual, 3, 1)
            assert self.same_bits(charlie.residual[t], one.residual[0])

    def test_correction_and_fidelity_match_one_row_stacks(self):
        rng = np.random.default_rng(8)
        labels = list(itertools.product(("I", "X", "Z", "iY"), repeat=3))
        rows = np.array([random_state(3, rng).amplitudes for _ in labels])
        paulis = [PauliString(lab) for lab in labels]
        corrected = apply_pauli_string(rows, (2, 0, 1), paulis)
        fids = fidelity(corrected, rows)
        for t, pauli in enumerate(paulis):
            one = apply_pauli_string(rows[t : t + 1], (2, 0, 1), [pauli])
            assert self.same_bits(corrected[t], one[0])
            assert fids[t].hex() == fidelity(one, rows[t : t + 1])[0].hex()

    def test_one_generator_or_pauli_per_row(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="2 rows but 1 generators"):
            measure_in_basis(rows, hadamard_basis(0), [substream(1, 0)])
        with pytest.raises(ValueError, match="2 rows but 1 Pauli strings"):
            apply_pauli_string(rows, (0,), [PauliString(("X",))])
        with pytest.raises(ValueError):
            fidelity(rows, rows[:1])

    def test_one_bad_row_fails_the_stack(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        computational = OrthonormalBasis(
            (0,), (StateVector.ket("0"), StateVector.ket("1"))
        )
        with pytest.raises(ValueError, match="outcome 1 has zero probability"):
            force_basis_outcome(rows, computational, 1)
        partial = OrthonormalBasis((0,), (StateVector.ket("0"),))
        with pytest.raises(OutOfSpanError):
            measure_in_basis(rows, partial, [substream(1, 0), substream(1, 1)])
        check_normalized(rows)
        with pytest.raises(NormalizationError):
            check_normalized(np.vstack([rows[:1], 2 * rows[1:]]))
        with pytest.raises(NormalizationError):
            check_normalized(np.vstack([rows[:1], np.nan * rows[1:]]))
