import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghzsplit
from ghzsplit._numpy_bits import (
    _pcg64_seeds,
    _pcg64_words,
    _preseeded,
    _stacked_seeds,
    _ziggurat_normals,
    trial_draws,
)
from ghzsplit.oracle import derive_table
from ghzsplit.protocol import (
    CANONICAL,
    LITERAL,
    CorrectionTable,
    SecretSpec,
    Variant,
    VARIANT_SPECS,
    _draw_coefficients,
    _joint_weights,
    build_alice_basis,
    build_channel,
    build_secret,
    outcome_distribution,
    TRIAL_BLOCK,
    published_correction_table,
    random_secret,
    run_protocol,
    run_trials,
    substream,
)
from ghzsplit.statevec import (
    NormalizationError,
    OutOfSpanError,
    StateVector,
    _xor_sign_tables,
)

THREE_VARIANTS = [Variant.THREE_A, Variant.THREE_B]
ALL_VARIANTS = list(Variant)
# the directory that holds the package under test, for child interpreters
SRC = str(Path(ghzsplit.__file__).resolve().parents[1])


def run_child(code: str) -> str:
    """Stdout of a fresh interpreter that runs ``code`` on the package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_channel_bits_match_reference(self, variant, reference):
        # every amplitude bit for bit: the kron-and-transpose channel of 0.1.0
        ref_protocol = reference("protocol")
        ref = ref_protocol.build_channel(ref_protocol.Variant(variant.value))
        np.testing.assert_array_equal(
            build_channel(variant).amplitudes.view(np.uint64),
            ref.amplitudes.view(np.uint64),
        )

    def test_channel_is_cached(self):
        assert build_channel(Variant.FOUR) is build_channel(Variant.FOUR)


class TestVariantSpecs:
    @pytest.mark.parametrize(
        "variant,qubits,norm",
        [(Variant.THREE_A, 3, 1.0), (Variant.THREE_B, 3, 1.0), (Variant.FOUR, 4, 0.5)],
        ids=variant_ids(ALL_VARIANTS),
    )
    def test_derived_constants(self, variant, qubits, norm):
        vs = VARIANT_SPECS[variant]
        assert (vs.secret_qubits, vs.bob_qubits) == (qubits, qubits)
        assert type(vs.coefficient_norm) is float and vs.coefficient_norm == norm


class TestSecrets:
    def test_basis_coefficients_map_to_class_kets(self):
        state = build_secret(SecretSpec(Variant.THREE_A, (0, 1, 0, 0)))
        np.testing.assert_array_equal(state.amplitudes, np.eye(8)[0b011])
        state = build_secret(SecretSpec(Variant.THREE_B, (0, 0, 1, 0)))
        np.testing.assert_array_equal(state.amplitudes, np.eye(8)[0b110])

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

    def test_variant_given_by_name(self):
        # a name was kept as a str: to_dict() raised AttributeError
        spec = SecretSpec("three-a", (1, 0, 0, 0))
        assert spec.variant is Variant.THREE_A
        assert spec.to_dict()["variant"] == "three-a"
        assert spec == SecretSpec(Variant.THREE_A, (1, 0, 0, 0))

    @pytest.mark.parametrize("bad", [3, "three", None, True])
    def test_variant_that_is_no_variant_rejected(self, bad):
        # 3 was accepted until .state raised a bare KeyError
        with pytest.raises(ValueError, match="unknown variant"):
            SecretSpec(bad, (1, 0, 0, 0))

    @pytest.mark.parametrize(
        "bad",
        ["1000", b"\x01\x00\x00\x00", bytearray(4), None, 5, (1, None, 0, 0),
         ("1", 0, 0, 0), (1, 0, np.str_("0j"), 0), (b"1", 0, 0, 0),
         (True, False, False, False), (0.5, 0.5, 0.5, True),
         np.array([True, False, False, False]), (np.True_, 0, 0, 0), True],
        ids=["str", "bytes", "bytearray", "None", "int", "None-item",
             "str-item", "numpy-str-item", "bytes-item", "bools", "bool-item",
             "bool-array", "numpy-bool-item", "bool"],
    )
    def test_coefficients_that_are_no_numbers_rejected(self, bad):
        # "1000" ran as the secret (1, 0, 0, 0), a bytes value one byte per
        # coefficient; None or 5 raised a bare TypeError; a str item was
        # parsed as the number it spells, and (True, False, False, False)
        # built |000>
        with pytest.raises(ValueError, match="sequence of numbers"):
            SecretSpec(Variant.THREE_A, bad)

    def test_coefficients_from_any_iterable(self):
        spec = SecretSpec(Variant.FOUR, np.array([0.5, 0.5j]))
        assert spec.coefficients == (0.5, 0.5j)
        assert SecretSpec(Variant.FOUR, iter([0.5, 0.5j])) == spec

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


def substream_draws(seed: int, t: int, normals: int, uniforms: int) -> bytes:
    """The bits of ``substream(seed, t)``'s own ``normal(size=normals)`` call
    and then its ``uniforms`` calls of ``random()``."""
    rng = substream(seed, t)
    drawn = [*rng.normal(size=normals), *(rng.random() for _ in range(uniforms))]
    return np.array(drawn, np.float64).tobytes()


def stacked_draws(seed: int, stop: int, normals: int, uniforms: int) -> list[bytes]:
    """The bits of each trial's row of ``trial_draws`` over trials 0 ..
    stop - 1, made a ``TRIAL_BLOCK`` at a time as ``run_trials`` makes them."""
    rows = []
    for start in range(0, stop, TRIAL_BLOCK):
        end = min(start + TRIAL_BLOCK, stop)
        block = trial_draws(substream, seed, start, end, normals, uniforms)
        rows += [np.concatenate(row).tobytes() for row in zip(block[0], block[1].T)]
    return rows


class TestStackedSecretDraw:
    """A block's secrets, drawn as one stack by ``_draw_coefficients`` on the
    block's ``trial_draws``, against one ``random_secret`` per trial and the
    frozen two-call draw of 0.1.0."""

    # both ends of the first block, its middle, and the first two trials of
    # the second block
    TRIALS = (0, 1, TRIAL_BLOCK // 2, TRIAL_BLOCK - 1, TRIAL_BLOCK,
              TRIAL_BLOCK + 1)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**128)))
    @example(seed=0)
    @example(seed=2**64)
    def test_rows_are_each_trials_own_draw(self, variant, seed, reference):
        ref = reference("protocol")
        normals = 2 * VARIANT_SPECS[variant].coefficient_count
        stop = max(self.TRIALS) + 1
        blocks = []
        for start in range(0, stop, TRIAL_BLOCK):
            gaussian, uniform = trial_draws(
                substream, seed, start, min(start + TRIAL_BLOCK, stop), normals, 2
            )
            blocks.append((_draw_coefficients(variant, gaussian), uniform))
        for t in self.TRIALS:
            rows, uniform = blocks[t // TRIAL_BLOCK]
            stacked = rows[t % TRIAL_BLOCK]
            one, frozen = substream(seed, t), ref.substream(seed, t)
            want = np.array(random_secret(variant, one).coefficients)
            spec = ref.random_secret(ref.Variant(variant.value), frozen)
            assert np.array_equal(stacked.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(
                want.view(np.uint64), np.array(spec.coefficients).view(np.uint64)
            )
            assert one.bit_generator.state == frozen.bit_generator.state
            # then Alice's and Charlie's random() calls
            drawn = np.array([one.random(), one.random()])
            assert uniform[:, t % TRIAL_BLOCK].tobytes() == drawn.tobytes()


class TestStackedSeeding:
    """A block's draws, made as array arithmetic by ``trial_draws``, against
    one ``substream`` per trial and its own ``normal`` and ``random`` calls."""

    # (normals, uniforms): a three-qubit random secret and sampled outcomes,
    # a four random secret with forced outcomes, a fixed secret sampled
    COUNTS = [(8, 2), (4, 0), (0, 2)]

    @pytest.mark.parametrize("counts", COUNTS, ids=["8+2", "4+0", "0+2"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**200 - 1))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**96 + 1)  # 4 seed words and the trial's: past the pool
    def test_every_trial_of_two_blocks_is_its_substream(self, counts, seed):
        trials = TRIAL_BLOCK + 2
        rows = stacked_draws(seed, trials, *counts)
        assert len(rows) == trials
        for t, row in enumerate(rows):
            assert row == substream_draws(seed, t, *counts), t

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), length=st.integers(1, 9))
    def test_hash_is_seed_sequences(self, data, length):
        words = st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length)
        lists = data.draw(st.lists(words, min_size=1, max_size=4))
        want = [np.random.SeedSequence(w).generate_state(4, np.uint64) for w in lists]
        assert np.array_equal(_pcg64_seeds(np.array(lists, np.uint32).T), want)

    @settings(max_examples=30, deadline=None)
    @given(
        seeds=st.lists(
            st.lists(
                st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                          st.integers(0, 2**64 - 1)),
                min_size=4, max_size=4,
            ),
            min_size=1, max_size=4,
        ),
        count=st.integers(1, 12),
    )
    def test_words_are_pcg64s_outputs(self, seeds, count):
        rows = np.array(seeds, np.uint64)
        want = [
            np.random.PCG64(_preseeded()(row)).random_raw(count) for row in rows
        ]
        assert np.array_equal(_pcg64_words(rows, count), np.array(want).T)

    def test_negative_seed_rejected_as_substream_rejects_it(self):
        with pytest.raises(ValueError) as want:
            substream(-1, 0)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            next(run_trials(Variant.FOUR, -1, 1))
        # a forced run with a fixed secret draws nothing, and checks the seed
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5j))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            next(run_trials(Variant.FOUR, -1, 1, secret=spec, forced=(1, 1)))

    @pytest.mark.parametrize("start", [2**32 - 5, 2**64 - 5], ids=["2^32", "2^64"])
    def test_trial_index_words_split_as_numpy_splits_them(self, start):
        # trial 2**32 is the words (0, 1), never trial 0 through a uint32 cast
        stop = start + 128
        gaussian, uniform = trial_draws(substream, 7, start, stop, 8, 2)
        rows = [np.concatenate(row).tobytes() for row in zip(gaussian, uniform.T)]
        for t, row in zip(range(start, stop), rows, strict=True):
            assert row == substream_draws(7, t, 8, 2), t

    # (seed, trial, normals, layer kind): trials one of whose normals leaves
    # numpy's fast path, on a layer past 1, on layer 0 (the tail) or on
    # layer 1 (whose KI is 0); trial 2 of seed 7 and trial 7 of seed 2026
    # are rejected at their first normal
    SLOW = [
        (7, 2, 8, "rejected"), (2026, 7, 4, "rejected"), (7, 116, 8, "tail"),
        (7, 116, 4, "tail"), (7, 7, 8, "layer 1"), (7, 119, 4, "layer 1"),
    ]

    @pytest.mark.parametrize("seed,trial,normals,kind", SLOW)
    def test_slow_path_trials_are_their_substreams(self, seed, trial, normals, kind):
        words = _pcg64_words(_stacked_seeds(seed, trial, trial + 1), normals)[:, 0]
        _, fast = _ziggurat_normals(words)
        first = int(np.argmin(fast))
        assert not fast[first]
        layer = int(words[first] & 0xFF)
        assert kind == {0: "tail", 1: "layer 1"}.get(layer, "rejected")
        want = substream_draws(seed, trial, normals, 2)
        # drawn by its own generator, first in its block and inside one
        assert stacked_draws(seed, trial + 3, normals, 2)[trial] == want
        gaussian, uniform = trial_draws(substream, seed, trial, trial + 1, normals, 2)
        assert np.concatenate([gaussian[0], uniform[:, 0]]).tobytes() == want

    def test_set_up_leaves_numpy_random_unloaded(self):
        # numpy.random loads on first use; the stacked seeding must not load
        # it on import or while the caches fill
        out = run_child(
            "import sys\n"
            "import ghzsplit, ghzsplit.cli\n"
            "from ghzsplit import protocol\n"
            "for v in protocol.Variant:\n"
            "    protocol.build_channel(v)\n"
            "    protocol.published_correction_table(v)\n"
            "    protocol.build_alice_basis(v)\n"
            "    for encoding in protocol.ENCODINGS:\n"
            "        protocol.build_alice_basis(v, encoding)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert out == "False\n"

    def test_stack_that_differs_from_substream_raises(self, monkeypatch):
        from ghzsplit import _numpy_bits

        seeds = _numpy_bits._pcg64_seeds
        monkeypatch.setattr(
            _numpy_bits, "_pcg64_seeds", lambda e: seeds(e) ^ np.uint64(1)
        )
        with pytest.raises(RuntimeError, match="differs from substream"):
            next(run_trials(Variant.FOUR, 7, 3))


class TestGeneratorsBuilt:
    """Only the trials that leave the ziggurat's fast path, and one check per
    block, build generators."""

    @pytest.fixture
    def built(self, monkeypatch):
        from ghzsplit import cli, protocol

        counts = {"substream": 0, "Generator": 0}

        def counted(name, make):
            def build(*args):
                counts[name] += 1
                return make(*args)
            return build

        for module in (protocol, cli):
            monkeypatch.setattr(module, "substream", counted("substream", substream))
        monkeypatch.setattr(
            np.random, "Generator", counted("Generator", np.random.Generator)
        )
        return counts

    def test_random_secrets_build_one_per_slow_trial(self, built):
        chunks = list(run_trials(Variant.THREE_A, 7, TRIAL_BLOCK + 1))
        assert sum(len(c.fidelities) for c in chunks) == TRIAL_BLOCK + 1
        words = _pcg64_words(_stacked_seeds(7, 0, TRIAL_BLOCK + 1), 8)
        slow = int(np.sum(~np.logical_and.reduce(_ziggurat_normals(words)[1])))
        assert built == {"substream": 2, "Generator": slow}
        assert 0 < slow < TRIAL_BLOCK // 4

    @pytest.mark.parametrize("forced,checks", [(None, 3), ((1, 1), 0)])
    def test_fixed_secret_builds_a_check_per_block_or_none(self, built, forced, checks):
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5j))
        trials = 2 * TRIAL_BLOCK + 1
        list(run_trials(Variant.FOUR, 7, trials, secret=spec, forced=forced))
        assert built == {"substream": checks, "Generator": 0}

    def test_forced_csv_run_with_a_fixed_secret_makes_no_substream(self, built):
        from ghzsplit.cli import main

        argv = ["run", "--variant", "four", "--trials", str(TRIAL_BLOCK + 1),
                "--secret", "0.5,-0.5j", "--forced", "1,1", "--format", "csv"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().count("\n") == TRIAL_BLOCK + 2
        assert built == {"substream": 0, "Generator": 0}


def source_literal_matrix(variant: Variant) -> np.ndarray:
    """The literal basis by the source's own rule, as a matrix: the frame
    rule with the phase qubits taken in reverse order, and ``four``'s
    vector 2 written again as vector 3."""
    vs = VARIANT_SPECS[variant]
    width = len(vs.alice_anchor[0])
    frame = (*vs.alice_flips, *vs.alice_phases[::-1])
    anchor = np.zeros(2**width)
    anchor[[int(ket, 2) for ket in vs.alice_anchor]] = 0.5
    vectors = []
    for i in range(vs.num_outcomes):
        bits = format(i, f"0{len(frame)}b")
        on = [1 << (width - 1 - q) if b == "1" else 0 for q, b in zip(frame, bits)]
        x, z = sum(on[: len(vs.alice_flips)]), sum(on[len(vs.alice_flips) :])
        source, sign = _xor_sign_tables(2**width, x, z)
        order = (-1.0) ** bin(x & z).count("1")
        vectors.append(order * sign * anchor[source] + 0.0)
    if variant is Variant.FOUR:
        vectors[3] = vectors[2]
    return np.array(vectors, dtype=complex)


class TestAliceBasis:
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_canonical_is_orthonormal(self, variant):
        basis = build_alice_basis(variant)
        assert basis.gram_defects(1e-12) == []
        assert len(basis.vectors) == VARIANT_SPECS[variant].num_outcomes

    def test_three_a_vector_one(self):
        basis = build_alice_basis(Variant.THREE_A)
        expected = np.zeros(32)
        expected[[0b00000, 0b01101, 0b10010, 0b11111]] = [0.5, -0.5, 0.5, -0.5]
        np.testing.assert_allclose(basis.vectors[1].amplitudes, expected, atol=1e-15)

    def test_three_a_vector_four_flips_last_qubit(self):
        basis = build_alice_basis(Variant.THREE_A)
        expected = np.zeros(32)
        expected[[0b00001, 0b01100, 0b10011, 0b11110]] = 0.5
        np.testing.assert_allclose(basis.vectors[4].amplitudes, expected, atol=1e-15)

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

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_literal_basis_is_the_source_rule(self, variant):
        # the canonical vectors through the outcome map give the source's
        # reversed phases and repeated vector, bit for bit, signed zeros too
        literal = build_alice_basis(variant, LITERAL)
        want = source_literal_matrix(variant)
        assert literal.matrix().view(np.uint64).tolist() == want.view(np.uint64).tolist()
        canonical = build_alice_basis(variant).vectors
        outcomes = VARIANT_SPECS[variant].literal_outcomes
        assert len(outcomes) == VARIANT_SPECS[variant].num_outcomes
        for vector, m in zip(literal.vectors, outcomes):
            assert vector.amplitudes.tobytes() == canonical[m].amplitudes.tobytes()
        assert not literal.validate

    def test_four_literal_duplicates_last_vector(self):
        literal = build_alice_basis(Variant.FOUR, LITERAL)
        np.testing.assert_array_equal(
            literal.vectors[3].amplitudes, literal.vectors[2].amplitudes
        )
        defects = literal.gram_defects(1e-12)
        assert [(i, j) for i, j, _ in defects] == [(2, 3)]

    def test_unknown_encoding_rejected(self):
        # a list raised TypeError from the cache, which cannot hash it
        for encoding in ("verbose", ["canonical"]):
            with pytest.raises(ValueError, match="encoding"):
                build_alice_basis(Variant.THREE_A, encoding)

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_one_canonical_basis_however_spelled(self, variant):
        # a cache keyed on the basis object builds once per variant
        basis = build_alice_basis(variant)
        assert build_alice_basis(variant, CANONICAL) is basis
        assert build_alice_basis(variant, encoding=CANONICAL) is basis
        assert build_alice_basis(variant, LITERAL) is not basis
        assert build_alice_basis.cache_info().currsize >= 2

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

    @pytest.mark.parametrize(
        "key,name",
        [((1.5, 0), "outcome"), ((True, 0), "outcome"), (("3", 1), "outcome"),
         ((1, 0.9), "bit"), ((1, False), "bit")],
    )
    def test_key_must_be_integers(self, key, name):
        # int() truncated these to the rows (1, 0) and (3, 1)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            published_correction_table(Variant.THREE_A)[key]

    def test_numpy_integer_key_accepted(self):
        table = published_correction_table(Variant.THREE_A)
        assert table[(np.int64(15), np.uint8(1))] == table[(15, 1)]

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
            np.eye(8)[0b000],
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
                StateVector(np.eye(4)[0b00]), variant=Variant.THREE_A, forced=(0, 0)
            )

    @pytest.mark.parametrize("how", ["raw", "spec"])
    def test_variant_given_by_name(self, how):
        # a name raised AttributeError in to_dict() beside a raw state, and
        # "contradicts" beside a SecretSpec
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5))
        secret = build_secret(spec) if how == "raw" else spec
        t = run_protocol(secret, variant="four", forced=(0, 0))
        assert t.variant is Variant.FOUR
        assert t.to_dict()["variant"] == "four"
        assert outcome_distribution(secret, variant="four") == t.probabilities

    @pytest.mark.parametrize("bad", ["five", 3, True])
    def test_variant_that_is_no_variant_rejected(self, bad):
        # "five" and 3 raised a bare KeyError
        state = build_secret(SecretSpec(Variant.FOUR, (0.5, 0.5)))
        with pytest.raises(ValueError, match="unknown variant"):
            run_protocol(state, variant=bad, forced=(0, 0))
        with pytest.raises(ValueError, match="unknown variant"):
            outcome_distribution(state, variant=bad)

    def test_variant_contradiction_rejected(self):
        spec = SecretSpec(Variant.THREE_A, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="contradicts"):
            run_protocol(spec, variant=Variant.THREE_B, forced=(0, 0))
        # run_trials raised OutOfSpanError ("outside the basis span")
        for forced in (None, (0, 0)):
            with pytest.raises(ValueError, match="contradicts"):
                next(run_trials(Variant.FOUR, 1, 2, secret=spec, forced=forced))

    def test_needs_some_outcome_source(self):
        with pytest.raises(ValueError, match="need rng, seed, or forced"):
            run_protocol(SecretSpec(Variant.THREE_A, (1, 0, 0, 0)))

    @pytest.mark.parametrize(
        "forced,message",
        [((1.5, 0), "^outcome must be an integer"),
         (("3", 1), "^outcome must be an integer"),
         ((True, 1), "^outcome must be an integer"),
         ((3, 1.0), "^bit must be an integer"),
         ((3, False), "^bit must be an integer"),
         ((1,), "values to unpack"), ((1, 0, 7), "values to unpack"),
         (5, "forced must be a pair"),
         ((1, 5), r"^bit 5 out of range \[0, 2\)$"),
         ((16, 0), r"^outcome 16 out of range \[0, 16\) for three-a$")],
    )
    def test_forced_outcomes_must_be_two_integers(self, forced, message):
        # each ran as another outcome, or (1,) raised a bare IndexError;
        # run_trials ran (True, 1) as outcome 1 and (1.5, 0) raised IndexError;
        # 5 raised TypeError, and (1, 5) called Charlie's bit an outcome
        spec = SecretSpec(Variant.THREE_A, (1, 0, 0, 0))
        with pytest.raises(ValueError, match=message):
            run_protocol(spec, forced=forced)
        for secret in (None, spec):
            with pytest.raises(ValueError, match=message):
                next(run_trials(Variant.THREE_A, 1, 2, secret=secret, forced=forced))

    def test_forced_numpy_integers_accepted(self):
        spec = SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0))
        t = run_protocol(spec, forced=(np.int64(3), np.uint8(1)))
        _same_bits(t, run_protocol(spec, forced=(3, 1)))
        assert type(t.alice_outcome) is int and type(t.charlie_bit) is int

    def test_rng_and_seed_together_rejected(self):
        # the seed was silently ignored
        spec = SecretSpec(Variant.THREE_A, (1, 0, 0, 0))
        with pytest.raises(ValueError, match="rng or seed, not both"):
            run_protocol(spec, rng=np.random.default_rng(1), seed=2)

    def test_forced_with_rng_ignores_rng(self):
        spec = SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0))
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        _same_bits(run_protocol(spec, rng=rng, forced=(5, 1)),
                   run_protocol(spec, forced=(5, 1)))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("forced", [(5, 1), None], ids=["forced", "sampled"])
    def test_table_without_the_outcome_row_raises(self, forced):
        # the kernel reads a table's rows directly; a row a caller's table
        # lacks still raises the table's own KeyError
        spec = SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0))
        outcome = run_protocol(spec, seed=3, forced=forced)
        key = outcome.alice_outcome, outcome.charlie_bit
        published = published_correction_table(Variant.THREE_A)
        rows = {k: p for k, p in published.rows.items() if k != key}
        table = CorrectionTable(Variant.THREE_A, "partial", rows)
        message = f"no row for outcome {key[0]}, bit {key[1]} in three-a table"
        with pytest.raises(KeyError, match=message):
            run_protocol(spec, seed=3, forced=forced, table=table)
        full = CorrectionTable(Variant.THREE_A, "copy", dict(published.rows))
        _same_bits(run_protocol(spec, seed=3, forced=forced, table=full), outcome)

    @pytest.mark.parametrize("forced", [(8, 1), None], ids=["forced", "sampled"])
    def test_table_of_another_variant_rejected(self, forced):
        # a four table raised KeyError or a Pauli width error, by outcome;
        # a table's variant may be given by its name
        spec = SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0))
        rows = published_correction_table(Variant.FOUR).rows
        for variant in (Variant.FOUR, "four"):
            table = CorrectionTable(variant, "published", rows)
            with pytest.raises(ValueError, match="table is for four, not three-a"):
                run_protocol(spec, seed=3, forced=forced, table=table)

    @pytest.mark.parametrize(
        "rng",
        ["x", random.Random(1), np.random.RandomState(1)],
        ids=["str", "random", "legacy"],
    )
    def test_rng_that_is_no_generator_rejected(self, rng):
        # "x" raised numpy's UFuncTypeError and random.Random "Random.random()
        # takes no arguments" inside the sampling; a RandomState was taken
        spec = SecretSpec(Variant.THREE_A, (0.6, 0, 0.8j, 0))
        with pytest.raises(ValueError, match="^rng must be a numpy Generator, got "):
            run_protocol(spec, rng=rng)

    @pytest.mark.parametrize(
        ("amps", "mass"),
        [
            (np.eye(8)[0b010], 1.0),
            ((np.eye(8)[0b000] + np.eye(8)[0b010]) / np.sqrt(2), 0.5000000000000002),
        ],
        ids=["010", "000+010"],
    )
    def test_out_of_class_raw_secret_rejected_everywhere(self, amps, mass):
        # outcome_distribution returned 32 weights summing to 0.0 and to
        # 0.49999999999999994; sampled and forced runs raised, and still
        # report the mass of Alice's lifted projection, bit for bit
        secret = StateVector(amps)
        calls = [
            lambda: run_protocol(secret, variant="three-a", seed=0),
            lambda: run_protocol(secret, variant="three-a", forced=(0, 0)),
            lambda: outcome_distribution(secret, variant="three-a"),
        ]
        for call in calls:
            with pytest.raises(OutOfSpanError) as exc:
                call()
            assert exc.value.missing_mass == mass

    def test_out_of_class_secret_rejected(self):
        # |010> lies outside the spanned class of this variant
        with pytest.raises(OutOfSpanError):
            run_protocol(
                StateVector(np.eye(8)[0b010]), variant=Variant.THREE_A, seed=0
            )

    def test_out_of_class_secret_leaves_the_generator_undrawn(self):
        # Alice's uniform is drawn only once her projection's span is checked
        rng = substream(3, 0)
        state = rng.bit_generator.state
        with pytest.raises(OutOfSpanError):
            run_protocol(StateVector(np.eye(8)[0b010]), variant="three-a", rng=rng)
        assert rng.bit_generator.state == state

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


def _same_trial(chunk, row, want):
    """Row ``row`` of a kernel chunk agrees with a transcript bit for bit."""
    i, b = divmod(int(chunk.rows[row]), 2)
    assert (i, b) == (want.alice_outcome, want.charlie_bit)
    assert chunk.table[i, b].labels == want.correction.labels
    for rows, state in (
        (chunk.bob_before, want.bob_state_before),
        (chunk.bob_after, want.bob_state_after),
    ):
        a, b = rows[row].view(np.uint64), state.amplitudes.view(np.uint64)
        assert np.array_equal(a, b)
    assert chunk.fidelities[row].hex() == want.fidelity.hex()
    weights = _joint_weights(chunk.alice_branches, chunk.alice_kets)[row]
    weights = weights.ravel().tolist()
    assert [w.hex() for w in weights] == [
        w.probability.hex() for w in want.probabilities
    ]


def _same_coefficients(row, spec):
    """A drawn coefficient row is a reference secret's, bit for bit."""
    want = np.array(spec.coefficients).view(np.uint64)
    assert np.array_equal(row.view(np.uint64), want)


class TestTrialKernel:
    """The batched kernel against the frozen scalar ``run_protocol``."""

    SEED = 5150
    TRIALS = TRIAL_BLOCK + 1  # across a block boundary

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_sampled_trials_match_reference(self, variant, reference):
        ref = reference("protocol")
        ref_variant = ref.Variant(variant.value)
        trial = 0
        for chunk in run_trials(variant, self.SEED, self.TRIALS):
            rows = chunk.coefficients
            assert len(chunk.fidelities) == len(rows)
            for row, coefficients in enumerate(rows):
                rng = ref.substream(self.SEED, trial)
                spec = ref.random_secret(ref_variant, rng)
                _same_coefficients(coefficients, spec)
                want = ref.run_protocol(spec, rng=rng)
                _same_trial(chunk, row, want)
                if trial < 50:  # the kernel's one-trial case
                    rng = substream(self.SEED, trial)
                    _same_bits(run_protocol(random_secret(variant, rng), rng=rng), want)
                trial += 1
        assert trial == self.TRIALS > TRIAL_BLOCK

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_every_forced_row_matches_reference(self, variant, reference):
        ref = reference("protocol")
        ref_variant = ref.Variant(variant.value)
        for row in published_correction_table(variant).rows:
            (chunk,) = run_trials(variant, self.SEED, 3, forced=row)
            rows = chunk.coefficients
            assert len(chunk.fidelities) == len(rows) == 3
            for trial, coefficients in enumerate(rows):
                spec = ref.random_secret(ref_variant, ref.substream(self.SEED, trial))
                _same_coefficients(coefficients, spec)
                want = ref.run_protocol(spec, forced=row)
                _same_trial(chunk, trial, want)
                secret = SecretSpec(variant, coefficients.tolist())
                _same_bits(run_protocol(secret, forced=row), want)

    def test_raw_state_secret_rejected(self):
        # a chunk carries its secrets' coefficients, which a raw state lacks
        state = build_secret(SecretSpec(Variant.FOUR, (0.5, 0.5)))
        with pytest.raises(ValueError, match="must be a SecretSpec"):
            next(run_trials(Variant.FOUR, 1, 2, secret=state))

    def test_fixed_secret_every_trial(self):
        spec = SecretSpec(Variant.FOUR, (0.5, 0.5j))
        chunks = list(run_trials(Variant.FOUR, 1, TRIAL_BLOCK + 1, secret=spec))
        assert [len(c.fidelities) for c in chunks] == [TRIAL_BLOCK, 1]
        # every row is the secret's coefficients, bit for bit: a fixed
        # secret draws nothing from the trials' generators
        for chunk in chunks:
            assert len(chunk.coefficients) == len(chunk.fidelities)
            for row in chunk.coefficients:
                _same_coefficients(row, spec)
        for trial in (0, TRIAL_BLOCK - 1, TRIAL_BLOCK):
            chunk, row = chunks[trial // TRIAL_BLOCK], trial % TRIAL_BLOCK
            _same_trial(chunk, row, run_protocol(spec, rng=substream(1, trial)))

    @pytest.mark.parametrize("how", ["sampled", "forced", "table"])
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_chunk_rows_are_run_protocols_outcome_and_bit(
        self, variant, how, monkeypatch
    ):
        # trial t's row is 2 * outcome + bit of trial t run alone, in the
        # block and in run_protocol's one-trial chunk, and each chunk keeps
        # the very table its kernel was given: the published one in
        # run_trials, a caller's (here the derived one) in run_protocol
        made = []
        run_chunk = ghzsplit.protocol._run_chunk

        def recording(*args):
            made.append((args[-1], run_chunk(*args)))
            return made[-1][1]

        monkeypatch.setattr(ghzsplit.protocol, "_run_chunk", recording)
        seed, trials = 23, 40
        forced = (3, 1) if how == "forced" else None
        published = published_correction_table(variant)
        table = derive_table(variant).preferred_table() if how == "table" else None
        used = published if table is None else table
        (block,) = run_trials(variant, seed, trials, forced=forced)
        ((given, chunk),) = made
        assert given is published and chunk is block and block.table is published
        rows = block.rows.tolist()
        for trial in range(trials):
            made.clear()
            rng = substream(seed, trial)
            spec = random_secret(variant, rng)
            want = run_protocol(spec, rng=rng, forced=forced, table=table)
            ((given, chunk),) = made
            assert given is used and chunk.table is used
            i, b = want.alice_outcome, want.charlie_bit
            assert chunk.rows.tolist() == [2 * i + b]
            assert divmod(rows[trial], 2) == (i, b)
            assert want.correction is used[i, b]
        if forced:
            assert set(rows) == {7}
        else:
            assert len(set(rows)) > 2


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

    SPEC = SecretSpec(Variant.FOUR, (0.5, 0.5j))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: substream("7", 0),
            lambda: substream(7.9, 0),
            lambda: substream(True, 0),
            lambda: substream(7, "0"),
            lambda: substream(7, 0.0),
            lambda: next(run_trials("four", 1.5, 3)),
            lambda: next(run_trials("four", 1, True)),
            lambda: next(run_trials("four", 1, 2.0)),
            lambda: next(run_trials("four", "1", 3)),
            lambda: run_protocol(TestSubstream.SPEC, seed=True),
            lambda: run_protocol(TestSubstream.SPEC, seed=3.0),
            lambda: run_protocol(TestSubstream.SPEC, seed=True, forced=(1, 1)),
        ],
        ids=[
            "substream-str-seed", "substream-float-seed", "substream-bool-seed",
            "substream-str-key", "substream-float-key", "run_trials-float-seed",
            "run_trials-bool-trials", "run_trials-float-trials",
            "run_trials-str-seed", "run_protocol-bool-seed",
            "run_protocol-float-seed", "run_protocol-bool-seed-forced",
        ],
    )
    def test_seeds_keys_and_trial_counts_must_be_integers(self, call):
        # each ran as its int() before, or raised a bare TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("trials", [0, -5, np.int64(0)])
    def test_trial_count_below_one_rejected(self, trials):
        # each yielded no chunk; the CLI refuses --trials below 1 too
        with pytest.raises(ValueError, match="trials must be at least 1"):
            next(run_trials("four", 1, trials))

    def test_numpy_integers_are_integers(self):
        state = substream(np.int64(7), np.uint8(2)).bit_generator.state
        assert state == substream(7, 2).bit_generator.state
        chunks = run_trials("four", np.uint32(1), np.int64(3))
        assert next(chunks).fidelities == next(run_trials("four", 1, 3)).fidelities
        # a seed gives the generator np.random.default_rng(seed) gives
        got = run_protocol(self.SPEC, seed=np.int64(3))
        want = run_protocol(self.SPEC, rng=np.random.default_rng(3))
        for field in ("alice_outcome", "charlie_bit", "fidelity"):
            assert getattr(got, field) == getattr(want, field)

    def test_distinct_keys_give_distinct_streams(self):
        a = substream(5, 1).normal(size=4)
        b = substream(5, 2).normal(size=4)
        assert not np.allclose(a, b)


class TestVariantParse:
    def test_parse_round_trip(self):
        assert Variant.parse("three-b") is Variant.THREE_B

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=variant_ids(ALL_VARIANTS))
    def test_builders_take_a_name(self, variant):
        name = variant.value
        assert build_channel(name) is build_channel(variant)
        for encoding in (CANONICAL, LITERAL):
            basis = build_alice_basis(name, encoding)
            assert basis is build_alice_basis(variant, encoding)
        table = published_correction_table(name)
        assert table is published_correction_table(variant)
        assert table.variant is variant

    def test_published_table_by_name_first(self):
        # the cache kept the spelling of its first call: the table's to_dict()
        # raised AttributeError when a name came first
        out = run_child(
            "from ghzsplit.protocol import published_correction_table\n"
            "print(published_correction_table('four').to_dict()['variant'])\n"
        )
        assert out == "four\n"

    @pytest.mark.parametrize("bad", ["five", 3])
    @pytest.mark.parametrize(
        "build", [build_channel, build_alice_basis, published_correction_table]
    )
    def test_builders_reject_what_is_no_variant(self, build, bad):
        # each raised a bare KeyError
        with pytest.raises(ValueError, match="unknown variant"):
            build(bad)

    def test_trials_take_a_name(self):
        # a chunk kept the name as a str, with no .value for its csv rows
        chunk = next(run_trials("four", 1, 3))
        assert chunk.variant is Variant.FOUR
        assert chunk.fidelities == next(run_trials(Variant.FOUR, 1, 3)).fidelities
        for bad in ("five", 3):
            with pytest.raises(ValueError, match="unknown variant"):
                next(run_trials(bad, 1, 3))

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Variant.parse("five")
