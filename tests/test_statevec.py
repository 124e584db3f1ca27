import itertools
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ghzsplit

from ghzsplit import oracle, statevec
from ghzsplit.protocol import (
    ENCODINGS,
    LITERAL,
    TRIAL_BLOCK,
    VARIANT_SPECS,
    Variant,
    build_alice_basis,
    build_channel,
    build_secret,
    published_correction_table,
    random_secret,
    run_protocol,
    run_trials,
    substream,
)
from ghzsplit.statevec import (
    Kets,
    NormalizationError,
    OrthonormalBasis,
    OutOfSpanError,
    PauliString,
    StateVector,
    _pauli_tables,
    _xor_sign_tables,
    apply_pauli_string,
    basis_projection_probabilities,
    check_normalized,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    measure_hadamard,
    measure_in_basis,
    sample_outcomes,
    tensor_product,
)


# the four factors as literal 2x2 matrices; iY = i * sigma_y, exactly real
PAULIS = {
    "I": np.array([[1, 0], [0, 1]]),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "iY": np.array([[0, 1], [-1, 0]]),
}


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    z = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(z / np.linalg.norm(z))


class TestStateVector:
    def test_qubit_count_read_off_the_length(self):
        assert StateVector(np.eye(8)[0b010]).num_qubits == 3
        assert StateVector([1.0]).num_qubits == 0
        assert type(StateVector([1.0, 0.0]).num_qubits) is int

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_amplitude_count_must_be_a_power_of_two(self, length):
        amps = np.zeros(length, dtype=complex)
        with pytest.raises(ValueError, match=f"amplitude count {length} is not"):
            StateVector(amps)

    @pytest.mark.parametrize(
        "amps",
        [[[1, 0], [0, 0]], np.eye(2) / np.sqrt(2.0), np.ones((1, 1)), 1.0],
        ids=["ket-00-as-matrix", "bell-as-matrix", "one-by-one", "scalar"],
    )
    def test_amplitudes_must_be_one_dimensional(self, amps):
        # each was flattened: the matrices read as |00> and a Bell state
        with pytest.raises(ValueError, match="one row of numbers"):
            StateVector(amps)

    @pytest.mark.parametrize(
        "amps",
        [["1", "0"], [b"1", 0], [np.str_("1"), 0.0], np.array(["1", 0], object)],
        ids=["str", "bytes", "numpy-str", "object-array"],
    )
    def test_text_amplitudes_rejected(self, amps):
        # numpy parsed each text as the number it spells
        with pytest.raises(ValueError, match="one row of numbers"):
            StateVector(amps)

    @pytest.mark.parametrize(
        "amps",
        [
            [True, False],
            np.array([True, False]),
            [np.True_, 0.0],
            [0.0, True],
            np.array([True, 0.0], object),
        ],
        ids=["list", "bool-array", "numpy-bool", "bool-after-float", "object-array"],
    )
    def test_bool_amplitudes_rejected(self, amps):
        # numpy read each bool as 0 or 1: [True, False] was |0>
        with pytest.raises(ValueError, match="one row of numbers"):
            StateVector(amps)

    def test_integer_amplitudes_still_accepted(self):
        assert StateVector([0, 1]).amplitudes.tolist() == [0, 1]
        assert StateVector(np.array([1, 0])).amplitudes.tolist() == [1, 0]

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError) as exc:
            StateVector(np.array([1.0, 1.0]))
        assert exc.value.deficit == pytest.approx(np.sqrt(2.0) - 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(NormalizationError):
            StateVector(np.array([bad, 0.0]))

    def test_amplitudes_are_read_only(self):
        amps = np.array([1.0, 0.0])
        state = StateVector(amps)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        amps[0] = 0.0  # the state keeps its own copy
        assert state.amplitudes[0] == 1.0

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

    @pytest.mark.parametrize(
        "labels",
        ["XZ", "iY", b"X", bytearray(b"X"), 3, None],
        ids=["str", "iY", "bytes", "bytearray", "int", "None"],
    )
    def test_rejects_text_and_non_sequences(self, labels):
        # "XZ" read as X (x) Z, "iY" as the labels i and Y; 3 raised TypeError
        with pytest.raises(ValueError, match="^labels must be a sequence of Pauli"):
            PauliString(labels)

    def test_rejects_unhashable_labels(self):
        # a list label raised TypeError: unhashable type
        with pytest.raises(ValueError, match=r"^unknown Pauli labels \[\['X'\]\]"):
            PauliString([["X"]])

    def test_labels_may_be_any_iterable(self):
        # read once: a generator used to be consumed by the label check
        assert PauliString(iter(["X", "iY"])).labels == ("X", "iY")

    def test_masks_put_qubit_zero_first(self):
        # X and iY flip their qubit, Z and iY negate its 1-slice
        assert PauliString(("X", "Z", "iY")).masks == (0b101, 0b011)
        assert PauliString(("I", "I")).masks == (0, 0)

    def test_iy_is_exactly_real(self):
        m = PauliString(("iY",)).matrix()
        np.testing.assert_array_equal(m, np.array([[0, 1], [-1, 0]]))
        assert m.imag.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("label", sorted(PAULIS))
    def test_gates_are_unitary(self, label):
        g = PauliString((label,)).matrix()
        np.testing.assert_array_equal(g, PAULIS[label])
        np.testing.assert_array_equal(g.conj().T @ g, np.eye(2))

    @pytest.mark.parametrize("label,sign", [("I", 1), ("X", 1), ("Z", 1), ("iY", -1)])
    def test_square_is_plus_minus_identity(self, label, sign):
        g = PauliString((label,)).matrix()
        np.testing.assert_array_equal(g @ g, sign * np.eye(2))

    def test_matrix_kron_order(self):
        m = PauliString(("Z", "X")).matrix()
        np.testing.assert_array_equal(m, np.kron(PAULIS["Z"], PAULIS["X"]))

    def test_matrix_matches_reference(self, reference):
        ref = reference("statevec")
        for n in range(1, 5):
            for labels in itertools.product(("I", "X", "Z", "iY"), repeat=n):
                np.testing.assert_array_equal(
                    PauliString(labels).matrix(), ref.PauliString(labels).matrix()
                )


class TestGateApplication:
    def test_phase_flip_on_superposition(self):
        s = 1.0 / np.sqrt(2.0)
        state = StateVector([s, 0, 0, 0, s, 0, 0, 0])
        out = apply_pauli_string(state.amplitudes[None], [PauliString(("Z", "I", "I"))])
        np.testing.assert_array_equal(out[0], [s, 0, 0, 0, -s, 0, 0, 0])

    def test_pauli_string_length_mismatch(self):
        rows = StateVector(np.eye(4)[0b00]).amplitudes[None]
        with pytest.raises(ValueError, match="Pauli factors"):
            apply_pauli_string(rows, [PauliString(("X",))])
        with pytest.raises(ValueError, match="Pauli factors"):
            apply_pauli_string(rows, [PauliString(("X", "X", "X"))])

    def test_pauli_tables_gather_each_distinct_string(self):
        # a chunk repeats a few corrections: each string's rows are made
        # once and gathered, the same as one table per string
        labels = [("X", "Z", "I"), ("iY", "I", "Z"), ("X", "Z", "I"), ("I", "I", "I")]
        paulis = [PauliString(lab) for lab in labels * 3]
        source, sign = _pauli_tables(paulis, 8)
        want = [_xor_sign_tables(8, *p.masks) for p in paulis]
        np.testing.assert_array_equal(source, [w[0] for w in want])
        np.testing.assert_array_equal(sign, [w[1] for w in want])
        assert not source.flags.writeable and not sign.flags.writeable

    @pytest.mark.parametrize("first", [0, 1])
    def test_pauli_tables_check_every_distinct_width(self, first):
        # X and I*X share their masks; only I*X fits two qubits
        paulis = [PauliString(("I", "X")), PauliString(("X",))]
        with pytest.raises(ValueError, match="1 Pauli factors on rows of 4"):
            _pauli_tables(paulis[first:] + paulis[:first], 4)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_bits_match_reference_on_every_bob_state(self, variant, reference):
        # every candidate correction on the forced Bob state of every row;
        # the bit patterns must agree, signed zeros included
        ref = reference("statevec")
        k = VARIANT_SPECS[variant].bob_qubits
        secret = random_secret(variant, substream(2026, 0))
        candidates = list(itertools.product(("I", "X", "Z", "iY"), repeat=k))
        for row in published_correction_table(variant).rows:
            bob = run_protocol(secret, forced=row).bob_state_before
            ref_bob = ref.StateVector(k, bob.amplitudes)
            for labels in candidates:
                got = apply_pauli_string(bob.amplitudes[None], [PauliString(labels)])
                want = ref.apply_pauli_string(
                    ref_bob, tuple(range(k)), ref.PauliString(labels)
                )
                assert got[0].tobytes() == want.amplitudes.tobytes(), (
                    row,
                    labels,
                )


class TestTensorProduct:
    def test_tensor_product_order(self):
        out = tensor_product(StateVector(np.eye(2)[0b1]), StateVector(np.eye(2)[0b0]))
        np.testing.assert_array_equal(out.amplitudes, np.eye(4)[0b10])

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


class TestFidelity:
    def test_fidelity_ignores_global_phase(self):
        rng = np.random.default_rng(5)
        rows = np.array([random_state(2, rng).amplitudes for _ in range(3)])
        phases = np.exp(np.array([0.7j, -2.1j, 3.0j]))[:, None]
        fids = fidelity(rows, phases * rows)
        assert fids == [pytest.approx(1.0, abs=1e-12)] * 3

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.sampled_from([2, 8, 16]), rows=st.integers(1, 9))
    def test_batched_fidelity_is_the_per_row_vdot(self, data, width, rows):
        # one vecdot for the stack gives each row np.vdot's bits, signed
        # zeros included, and Python's abs squares them alike
        parts = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
        )
        amps = st.builds(complex, parts, parts)
        a, b = (
            data.draw(hnp.arrays(np.complex128, (rows, width), elements=amps))
            for _ in range(2)
        )
        got = fidelity(a, b)
        assert all(type(f) is float for f in got)
        assert [f.hex() for f in got] == [
            (abs(complex(np.vdot(x, y))) ** 2).hex() for x, y in zip(a, b)
        ]

    def test_one_row_is_not_broadcast(self):
        # vecdot alone would compare the one row with each of the three
        rows = np.eye(4, dtype=complex)[:3]
        with pytest.raises(ValueError, match="1 rows but 3 rows to compare"):
            fidelity(rows[:1], rows)
        with pytest.raises(ValueError, match="3 rows but 1 rows to compare"):
            fidelity(rows, rows[:1])


def _blas_skip_reason() -> str | None:
    """Why numpy's BLAS cannot be switched between kernels by
    ``OPENBLAS_CORETYPE``, or None if it can."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "this OpenBLAS is built for one kernel (no DYNAMIC_ARCH)"
    return None


# compares the batched fidelity with one np.vdot per row on every row of
# every chunk of a run per variant; prints the counts as JSON
_KERNEL_CHILD = """
import json, sys
import numpy as np
from ghzsplit import protocol
from ghzsplit.statevec import fidelity
rows = differ = 0
for variant in protocol.Variant:
    for chunk in protocol.run_trials(variant, 2026, int(sys.argv[1])):
        secrets = protocol._secret_rows(variant, chunk.coefficients)
        got = fidelity(chunk.bob_after, secrets)
        want = [
            abs(complex(np.vdot(x, y))) ** 2 for x, y in zip(chunk.bob_after, secrets)
        ]
        rows += len(want)
        differ += sum(g.hex() != w.hex() for g, w in zip(got, want, strict=True))
print(json.dumps({"rows": rows, "differ": differ}))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott", "Sandybridge"])
def test_batched_fidelity_bits_under_each_blas_kernel(coretype):
    # the dot products come from the BLAS kernel the CPU selects: each one
    # must give vecdot and vdot the same bits
    reason = _blas_skip_reason()
    if reason is not None:
        pytest.skip(reason)
    trials = 2000
    src = str(Path(ghzsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype}
    done = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(trials)],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    if done.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernel")
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert counts == {"rows": trials * len(Variant), "differ": 0}


class TestOrthonormalBasis:
    def bell_basis(self):
        s = 1.0 / np.sqrt(2.0)
        return OrthonormalBasis(
            (
                StateVector([s, 0, 0, s]),
                StateVector([s, 0, 0, -s]),
                StateVector([0, s, s, 0]),
                StateVector([0, s, -s, 0]),
            ),
        )

    def test_orthonormality_validated(self):
        v = StateVector(np.eye(2)[0b0])
        with pytest.raises(ValueError, match="not orthonormal"):
            OrthonormalBasis((v, v))

    def test_validate_false_allows_defects(self):
        v = StateVector(np.eye(2)[0b0])
        basis = OrthonormalBasis((v, v), validate=False)
        defects = basis.gram_defects()
        assert defects == [(0, 1, pytest.approx(1.0 + 0j))]

    @pytest.mark.parametrize(
        "atol", [np.nan, np.inf, -np.inf, -1.0, -1e-300, True, "1e-12", None, 1j]
    )
    def test_gram_tolerance_must_be_finite_and_not_negative(self, atol):
        # four's literal basis has one defect; NaN and inf hid it, and a
        # negative tolerance reported the diagonal as defects too
        literal = build_alice_basis(Variant.FOUR, LITERAL)
        assert len(literal.gram_defects()) == 1
        with pytest.raises(ValueError, match="atol must be a finite number >= 0"):
            literal.gram_defects(atol)

    def test_gram_tolerance_zero_and_numpy_floats_accepted(self):
        literal = build_alice_basis(Variant.FOUR, LITERAL)
        assert literal.gram_defects(np.float64(1e-12)) == literal.gram_defects()
        assert len(literal.gram_defects(0.0)) >= 1

    def test_vector_widths_must_agree(self):
        # the width of the vectors is the number of leading qubits measured
        mixed = (StateVector(np.eye(2)[0b0]), StateVector(np.eye(4)[0b01]))
        with pytest.raises(ValueError, match=r"one width, got \[1, 2\]"):
            OrthonormalBasis(mixed, validate=False)

    def test_empty_basis_rejected(self):
        # it measured no qubit and had no vector to collapse onto
        with pytest.raises(ValueError, match=r"one width, got \[\]"):
            OrthonormalBasis(())

    def test_too_many_vectors_rejected(self):
        vectors = tuple(StateVector(np.eye(2)[k % 2]) for k in range(3))
        with pytest.raises(ValueError, match="more vectors"):
            OrthonormalBasis(vectors, validate=False)

    def test_collapse_matches_manual_projection(self):
        # basis on the leading qubit: residual must equal the contracted
        # amplitudes renormalized by sqrt(p)
        rng = np.random.default_rng(21)
        state = random_state(3, rng)
        s = 1.0 / np.sqrt(2.0)
        basis = OrthonormalBasis((StateVector([s, s]), StateVector([s, -s])))
        tensor = state.amplitudes.reshape(2, 2, 2)
        for outcome, vec in enumerate(basis.vectors):
            projected = np.einsum("k,kac->ac", vec.amplitudes.conj(), tensor)
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
        basis = OrthonormalBasis((StateVector(np.eye(4)[0b00]),))
        rows = StateVector(np.eye(8)[0b111]).amplitudes[None]
        with pytest.raises(OutOfSpanError) as exc:
            force_basis_outcome(rows, basis, 0)
        assert exc.value.missing_mass == pytest.approx(1.0)
        with pytest.raises(OutOfSpanError):
            measure_in_basis(rows, basis, np.array([0.5]))

    def test_zero_probability_outcome_rejected(self):
        basis = OrthonormalBasis(
            (StateVector(np.eye(4)[0b00]), StateVector(np.eye(4)[0b01]))
        )
        rows = StateVector(np.eye(8)[0b000]).amplitudes[None]
        with pytest.raises(ValueError, match="zero probability"):
            force_basis_outcome(rows, basis, 1)

    def test_outcome_range_checked(self):
        rows = StateVector(np.eye(2)[0b0]).amplitudes[None]
        for outcome in (2, -1, 2**70):  # the last one overflows an int64
            with pytest.raises(ValueError, match=f"outcome {outcome} out of range"):
                force_hadamard_outcome(rows, outcome)


class TestHadamardMeasurement:
    def test_forced_outcomes_on_plus(self):
        s = 1.0 / np.sqrt(2.0)
        plus = np.array([[s, s]], dtype=complex)
        result = force_hadamard_outcome(plus, 0)
        assert result.probability[0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="zero probability"):
            force_hadamard_outcome(plus, 1)

    def test_equal_split_on_basis_state(self):
        result = force_hadamard_outcome(StateVector([1.0, 0.0]).amplitudes[None], 1)
        assert result.probability[0] == pytest.approx(0.5, abs=1e-12)
        assert result.residual.shape == (1, 1)  # no qubit left

    def test_sampling_statistics(self):
        # p(plus) = |a + b|^2 / 2 for amplitudes (a, b); 3 sigma band
        a, b = np.sqrt(0.25), np.sqrt(0.75)
        p = abs(a + b) ** 2 / 2.0
        n = 4096
        rows = np.repeat(np.array([[a, b]], dtype=complex), n, axis=0)
        # one generator for every row: row t takes its t-th draw
        uniforms = np.random.default_rng(2024).random(n)
        sampled = measure_hadamard(rows, uniforms)
        hits = int(np.sum(sampled.outcome == 0))
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma

    def test_sampled_residual_consistent_with_forced(self):
        rng = np.random.default_rng(8)
        rows = random_state(2, rng).amplitudes[None]
        sampled = measure_hadamard(rows, rng.random(1))
        forced = force_hadamard_outcome(rows, sampled.outcome)
        np.testing.assert_allclose(sampled.residual, forced.residual, atol=1e-15)


def dense_hadamard(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A dense Hadamard ``OrthonormalBasis`` on the last qubit: that qubit
    moved to the front of each row, as a copy, then the basis's matmul."""
    s = 1.0 / np.sqrt(2.0)
    basis = OrthonormalBasis((StateVector([s, s]), StateVector([s, -s])))
    front = rows.reshape(len(rows), -1, 2).transpose(0, 2, 1)
    return basis.project(front.reshape(len(rows), -1))


class TestCharlieProjection:
    """Charlie's projection is the halves of each row times 1/sqrt(2), on
    the kets the rows carry; on every row the protocol measures, scattered
    to full rows, it has the dense projection's bits."""

    @pytest.fixture
    def projections(self, monkeypatch):
        """Each stack of rows Charlie's projection gets, its kets, and what
        it gives."""
        seen = []
        original = statevec._Hadamard.project

        def recording(self, rows):
            result = original(self, rows)
            seen.append((self.kets, rows.copy(), result))
            return result

        monkeypatch.setattr(statevec._Hadamard, "project", recording)
        return seen

    @staticmethod
    def assert_dense_bits(projections, count):
        assert sum(len(rows) for _, rows, _ in projections) == count
        for kets, rows, (branches, probs) in projections:
            want_branches, want_probs = dense_hadamard(kets.scatter(rows))
            got = kets.halves[0].scatter(branches)
            assert np.array_equal(got.view(np.int64), want_branches.view(np.int64))
            assert np.array_equal(probs.view(np.int64), want_probs.view(np.int64))

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_kernel_rows_have_the_dense_bits(self, variant, projections):
        # two blocks: a full one and one of a single trial
        trials = TRIAL_BLOCK + 1
        for _ in run_trials(variant, 2026, trials):
            pass
        self.assert_dense_bits(projections, trials)
        # on the 4 kets the channel reaches, not the full rows
        assert {len(kets.live) for kets, _, _ in projections} == {4}

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_oracle_rows_have_the_dense_bits(
        self, variant, encoding, fresh_caches, projections
    ):
        # every row of the table, for each of the oracle's test secrets
        oracle._sampled_rows(variant, build_alice_basis(variant, encoding))
        count = len(oracle._all_rows(variant)) * len(oracle._test_secrets(variant))
        self.assert_dense_bits(projections, count)

    def test_dense_bits_need_a_zero_in_each_pair(self):
        # the two differ where both halves of a pair are nonzero
        rows = np.array([[0.6, 0.8]], dtype=complex)
        got = statevec._Hadamard(Kets.every(2)).project(rows)[0]
        want = dense_hadamard(rows)[0]
        assert not np.array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_allclose(got, want, rtol=1e-15)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_channel_fixes_charlies_bit_from_bobs(self, variant):
        # why every measured row has a zero in each pair: no two channel kets
        # share Bob's bits and differ in Charlie's, the last
        bob = VARIANT_SPECS[variant].bob_qubits
        amplitudes = build_channel(variant).amplitudes
        kets = [format(k, "06b") for k in np.flatnonzero(amplitudes)]
        charlie = {}
        for ket in kets:
            charlie.setdefault(ket[-1 - bob : -1], set()).add(ket[-1])
        assert len(kets) == 4
        assert all(len(bits) == 1 for bits in charlie.values()), charlie


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
        probs = four.project(combined.amplitudes[None])[1][0]
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
        uniforms = np.array([substream(5, t).random() for t in range(12)])
        alice = measure_in_basis(rows, basis, uniforms)
        charlie = force_hadamard_outcome(alice.residual, 1)
        for t in range(12):
            one = measure_in_basis(rows[t : t + 1], basis, substream(5, t).random(1))
            assert alice.outcome[t] == one.outcome[0]
            assert float(alice.probability[t]).hex() == float(one.probability[0]).hex()
            assert self.same_bits(alice.residual[t], one.residual[0])
            assert self.same_bits(alice.branches[t], one.branches[0])
            one = force_hadamard_outcome(one.residual, 1)
            assert self.same_bits(charlie.residual[t], one.residual[0])

    def test_correction_and_fidelity_match_one_row_stacks(self):
        rng = np.random.default_rng(8)
        labels = list(itertools.product(("I", "X", "Z", "iY"), repeat=3))
        rows = np.array([random_state(3, rng).amplitudes for _ in labels])
        paulis = [PauliString(lab) for lab in labels]
        corrected = apply_pauli_string(rows, paulis)
        fids = fidelity(corrected, rows)
        for t, pauli in enumerate(paulis):
            one = apply_pauli_string(rows[t : t + 1], [pauli])
            assert self.same_bits(corrected[t], one[0])
            assert fids[t].hex() == fidelity(one, rows[t : t + 1])[0].hex()

    def test_one_generator_or_pauli_per_row(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="2 rows but 1 uniforms"):
            measure_hadamard(rows, np.array([0.5]))
        with pytest.raises(ValueError, match="2 rows but 1 Pauli strings"):
            apply_pauli_string(rows, [PauliString(("X",))])
        with pytest.raises(ValueError):
            fidelity(rows, rows[:1])

    def test_one_bad_row_fails_the_stack(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        computational = OrthonormalBasis(
            (StateVector(np.eye(2)[0b0]), StateVector(np.eye(2)[0b1]))
        )
        with pytest.raises(ValueError, match="outcome 1 has zero probability"):
            force_basis_outcome(rows, computational, 1)
        partial = OrthonormalBasis((StateVector(np.eye(2)[0b0]),))
        with pytest.raises(OutOfSpanError):
            measure_in_basis(rows, partial, np.array([0.25, 0.75]))
        check_normalized(rows)
        with pytest.raises(NormalizationError):
            check_normalized(np.vstack([rows[:1], 2 * rows[1:]]))
        with pytest.raises(NormalizationError):
            check_normalized(np.vstack([rows[:1], np.nan * rows[1:]]))
        with pytest.raises(NormalizationError):
            check_normalized(np.array([[1.0, 0.0], [np.inf, 0.0]], dtype=complex))

    def test_norm_check_makes_no_temporary_the_size_of_the_stack(self):
        # 64 rows of 1024 amplitudes (1 MiB); the squares took 1 MiB more
        rows = np.full((64, 1024), 1 / 32, dtype=complex)
        tracemalloc.start()
        try:
            check_normalized(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes // 8
