"""Alice's measurement as a gather on the secret's amplitudes
(``protocol._alice_measurement``) against the dense projection of the
secret rows tensored with the channel: the same branches, on the kets the
channel reaches and +0.0 on every other, and the same probabilities, bit
for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzsplit
from ghzsplit.protocol import (
    ENCODINGS,
    VARIANT_SPECS,
    Variant,
    _alice_measurement,
    _draw_coefficients,
    _secret_rows,
    build_alice_basis,
    build_channel,
)
from ghzsplit.statevec import LiftedBasis, OrthonormalBasis, StateVector

CASES = [(v, e) for v in Variant for e in ENCODINGS]
CASE_IDS = [f"{v.value}-{e}" for v, e in CASES]
SIZES = (1, 2, 127, 128, 129)
KINDS = ("drawn", "unit", "arbitrary", "special", "mixed")

# entries of modulus 1/2 and 1: real, pure imaginary, negated, and with a
# signed zero part; and the four signed zeros
HALVES = [0.5, -0.5, 0.5j, -0.5j, complex(-0.0, 0.5), complex(0.5, -0.0),
          complex(-0.5, -0.0), complex(-0.0, -0.5)]
ONES = [2 * c for c in HALVES]
ZEROS = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]

SRC = str(Path(ghzsplit.__file__).resolve().parents[1])


def dense_projection(variant, basis, rows):
    """``basis.project`` of each row, ``np.kron``-ed with the channel."""
    channel = build_channel(variant).amplitudes
    return basis.project(np.array([np.kron(row, channel) for row in rows]))


def assert_same_bits(variant, encoding, rows):
    basis = build_alice_basis(variant, encoding)
    want = dense_projection(variant, basis, rows)
    lifted = _alice_measurement(variant, basis)
    branches, probs = lifted.project(rows)
    assert branches.flags.c_contiguous
    got = lifted.kets.scatter(branches), probs
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


@st.composite
def special_rows(draw, width):
    """Unit-norm rows with signed zeros: one entry of modulus 1, or four of
    modulus 1/2 (on the class kets or anywhere)."""
    dim = 2**width
    row = [draw(st.sampled_from(ZEROS)) for _ in range(dim)]
    if draw(st.booleans()):
        row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(ONES))
        return row
    places = draw(st.permutations(range(dim)))[:4]
    for place in places:
        row[place] = draw(st.sampled_from(HALVES))
    return row


def secret_stack(variant, kind, size, rng, specials):
    """``size`` rows of one kind: drawn class secrets, unit kets, arbitrary
    out-of-class states, ``specials`` repeated, or a mix of all four."""
    width = VARIANT_SPECS[variant].secret_qubits
    dim = 2**width
    if kind == "drawn":
        count = VARIANT_SPECS[variant].coefficient_count
        coefficients = _draw_coefficients(variant, rng.normal(size=(size, 2 * count)))
        return _secret_rows(variant, coefficients)
    if kind == "unit":
        units = np.eye(dim, dtype=complex)
        return units[rng.integers(0, dim, size)] * rng.choice(ONES, size)[:, None]
    if kind == "arbitrary":
        z = rng.normal(size=(size, dim)) + 1j * rng.normal(size=(size, dim))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if kind == "special":
        return np.resize(np.array(specials, dtype=complex), (size, dim))
    pool = np.vstack([
        secret_stack(variant, k, size, rng, specials) for k in KINDS[:-1]
    ])
    return pool[rng.permutation(len(pool))[:size]]


@pytest.mark.parametrize("variant,encoding", CASES, ids=CASE_IDS)
@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(KINDS),
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_is_dense_projection(variant, encoding, data, kind, size, seed):
    width = VARIANT_SPECS[variant].secret_qubits
    specials = data.draw(st.lists(special_rows(width), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    rows = secret_stack(variant, kind, size, rng, specials)
    assert_same_bits(variant, encoding, rows)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("variant,encoding", CASES, ids=CASE_IDS)
def test_every_stack_size(variant, encoding, size):
    rng = np.random.default_rng(size)
    width = VARIANT_SPECS[variant].secret_qubits
    specials = [[ZEROS[k % 4] for k in range(2**width - 1)] + [-1j]]
    rows = secret_stack(variant, "mixed", size, rng, specials)
    assert_same_bits(variant, encoding, rows)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_one_term_per_amplitude_but_in_four(variant):
    lifted = _alice_measurement(variant, build_alice_basis(variant))
    assert len(lifted.sources) == (2 if variant is Variant.FOUR else 1)
    nonzero = np.abs(lifted.weights[lifted.weights != 0])
    assert set(nonzero.tolist()) == {0.24999999999999994}


def walsh_basis(width):
    """The Walsh-Hadamard basis on qubits 0 .. width - 1: every amplitude of
    a branch of row (x) fixed sums all ``2**width`` row amplitudes."""
    dim = 2**width
    return OrthonormalBasis(tuple(
        StateVector([(-1) ** bin(i & k).count("1") / dim**0.5 for k in range(dim)])
        for i in range(dim)
    ))


def test_more_than_two_terms_refused():
    plus = StateVector([2**-0.5, 2**-0.5])
    assert len(LiftedBasis.of(walsh_basis(1), plus, 1).sources) == 2
    with pytest.raises(ValueError, match="4 terms"):
        LiftedBasis.of(walsh_basis(2), plus, 2)


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


CHILD = """
import numpy as np
from ghzsplit.protocol import (
    ENCODINGS, VARIANT_SPECS, Variant, _alice_measurement, _draw_coefficients,
    _secret_rows, build_alice_basis, build_channel,
)
rng = np.random.default_rng(5)
bad = 0
for variant in Variant:
    dim = 2 ** VARIANT_SPECS[variant].secret_qubits
    normals = 2 * VARIANT_SPECS[variant].coefficient_count
    channel = build_channel(variant).amplitudes
    for encoding in ENCODINGS:
        basis = build_alice_basis(variant, encoding)
        for size in (1, 2, 127, 128, 129):
            z = rng.normal(size=(size, dim)) + 1j * rng.normal(size=(size, dim))
            rows = np.vstack([
                _secret_rows(variant, _draw_coefficients(
                    variant, rng.normal(size=(size, normals))
                )),
                z / np.linalg.norm(z, axis=1, keepdims=True),
                np.eye(dim, dtype=complex),
            ])
            want = basis.project(np.array([np.kron(r, channel) for r in rows]))
            lifted = _alice_measurement(variant, basis)
            branches, probs = lifted.project(rows)
            got = lifted.kets.scatter(branches), probs
            bad += any(g.tobytes() != w.tobytes() for g, w in zip(got, want))
print(bad)
"""


@pytest.mark.skipif(not _openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_same_bits_under_openblas_kernel(coretype):
    # a fresh interpreter, so that OpenBLAS picks its kernel by the variable
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True
    )
    if done.returncode < 0:  # e.g. SIGILL: this CPU cannot run the kernel
        pytest.skip(f"OpenBLAS {coretype} kernel cannot run here: {done.returncode}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
