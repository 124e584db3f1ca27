"""Three-party information-splitting protocols over a pair of GHZ triplets.

Three protocol variants are provided. In each one Alice holds a secret state
from a restricted class, a six-qubit channel built from two GHZ triplets is
distributed among Alice, Bob, and Charlie, Alice measures her five qubits in a
16- or 4-vector product basis, Charlie measures his single qubit in the
Hadamard basis, and Bob recovers the secret by applying a Pauli correction
selected by the two classical messages.

Variant ids (also the CLI spellings):

* ``three-a``: 3-qubit secrets spanned by kets 000, 011, 100, 111; channel
  qubits 0,1 to Alice, 2,3,4 to Bob, 5 to Charlie.
* ``three-b``: 3-qubit secrets spanned by kets 000, 001, 110, 111; same
  channel layout, but the two GHZ triplets are distributed differently.
* ``four``: 4-qubit secrets a(|0000>+|0011>) + b(|1100>+|1111>); channel
  qubit 0 to Alice, 1,2,3,4 to Bob, 5 to Charlie.

Alice's basis vectors are Pauli frames on one anchor vector per variant
(``build_alice_basis``). The literal encoding keeps the source's two basis
defects: reversed phase qubits and a repeated last ``four`` vector.

The correction tables shipped here are verbatim transcriptions of the
published reference tables, including rows known to be defective; the oracle
module derives correct tables independently and reports every disagreement.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .statevec import (
    NORM_ATOL,
    LiftedBasis,
    NormalizationError,
    OrthonormalBasis,
    PauliString,
    StateVector,
    _NOT_NUMBERS,
    _check_span,
    _integer,
    _probabilities,
    _xor_sign_tables,
    apply_pauli_string,
    check_normalized,
    fidelity,
    force_basis_outcome,
    force_hadamard_outcome,
    measure_hadamard,
    measure_in_basis,
    tensor_product,
)

# version of every JSON document the package writes
SCHEMA_VERSION = 1
# least 1 - fidelity that counts as a failed recovery of the secret
FIDELITY_ATOL = 1e-9

CANONICAL = "canonical"
LITERAL = "literal"
ENCODINGS = (CANONICAL, LITERAL)


class Variant(str, Enum):
    THREE_A = "three-a"
    THREE_B = "three-b"
    FOUR = "four"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(
                f"unknown variant {text!r}; expected one of "
                f"{', '.join(v.value for v in cls)}"
            ) from None


@dataclass(frozen=True)
class VariantSpec:
    """Structural constants of one protocol variant."""

    variant: Variant
    coefficient_count: int
    secret_kets: tuple[str, ...]
    channel_permutation: tuple[int, ...]
    # Alice's basis (see build_alice_basis): anchor kets on her secret qubits
    # and channel share, and the qubits her outcome bits flip and phase-flip
    alice_anchor: tuple[str, ...]
    alice_flips: tuple[int, ...]
    alice_phases: tuple[int, ...]

    @property
    def secret_qubits(self) -> int:
        return len(self.secret_kets[0])

    @property
    def bob_qubits(self) -> int:
        """Bob's register holds the recovered secret."""
        return self.secret_qubits

    @property
    def coefficient_norm(self) -> float:
        """Required sum of |c|^2: each coefficient weighs
        ``len(secret_kets) / coefficient_count`` kets of a unit-norm secret."""
        return self.coefficient_count / len(self.secret_kets)

    @property
    def num_outcomes(self) -> int:
        return 2 ** (len(self.alice_flips) + len(self.alice_phases))


# Channel permutations: qubit i of the dealt channel is qubit perm[i] of the
# raw GHZ (x) GHZ product, whose order is (first triplet 0,1,2, second 3,4,5).
VARIANT_SPECS = {
    Variant.THREE_A: VariantSpec(
        variant=Variant.THREE_A,
        coefficient_count=4,
        secret_kets=("000", "011", "100", "111"),
        channel_permutation=(0, 3, 1, 4, 5, 2),
        alice_anchor=("00000", "01101", "10010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.THREE_B: VariantSpec(
        variant=Variant.THREE_B,
        coefficient_count=4,
        secret_kets=("000", "001", "110", "111"),
        channel_permutation=(0, 3, 1, 2, 4, 5),
        alice_anchor=("00000", "00101", "11010", "11111"),
        alice_flips=(3, 4),
        alice_phases=(3, 4),
    ),
    Variant.FOUR: VariantSpec(
        variant=Variant.FOUR,
        coefficient_count=2,
        secret_kets=("0000", "0011", "1100", "1111"),
        channel_permutation=(0, 1, 2, 3, 4, 5),
        alice_anchor=("00000", "00110", "11001", "11111"),
        alice_flips=(4,),
        alice_phases=(0,),
    ),
}


@dataclass(frozen=True)
class SecretSpec:
    """Coefficients of a secret within a variant's restricted class; the
    variant may be given by its name."""

    variant: Variant
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant.parse(self.variant))
        # text would be read one character or byte at a time, or parsed by
        # complex(); a bool would read as 0 or 1
        try:
            coefficients = tuple(self.coefficients)
            if any(
                isinstance(c, _NOT_NUMBERS) for c in (self.coefficients, *coefficients)
            ):
                raise TypeError
            coefficients = tuple(map(complex, coefficients))
        except TypeError:
            raise ValueError(
                f"coefficients must be a sequence of numbers, "
                f"got {self.coefficients!r}"
            ) from None
        object.__setattr__(self, "coefficients", coefficients)

    @functools.cached_property
    def state(self) -> StateVector:
        """``build_secret(self)``, built once per spec object: specs that
        differ only in a signed zero compare equal but do not share it."""
        return build_secret(self)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
        }


def build_channel(variant: Variant | str) -> StateVector:
    """Six-qubit channel: two GHZ triplets dealt out per the variant layout,
    built once per variant, given by its ``Variant`` or its name.

    GHZ (x) GHZ has four kets, each with amplitude ``s * s`` for ``s =
    1/sqrt(2)``: the product ``np.kron`` forms. Each goes to the index that
    ``channel_permutation`` deals its qubits to.
    """
    return _channel(Variant.parse(variant))


@functools.cache
def _channel(variant: Variant) -> StateVector:
    perm = VARIANT_SPECS[variant].channel_permutation
    s = complex(1.0 / np.sqrt(2.0))
    amps = np.zeros(2 ** len(perm), dtype=complex)
    for raw in ("000000", "000111", "111000", "111111"):
        amps[int("".join(raw[q] for q in perm), 2)] = s * s
    return StateVector(amps)


# the cache's hits and misses, read through the public name
build_channel.cache_info = _channel.cache_info


def build_secret(spec: SecretSpec) -> StateVector:
    """Secret state from class coefficients; rejects bad normalization."""
    vs = VARIANT_SPECS[spec.variant]
    if len(spec.coefficients) != vs.coefficient_count:
        raise ValueError(
            f"{spec.variant.value} takes {vs.coefficient_count} coefficients, "
            f"got {len(spec.coefficients)}"
        )
    try:
        total = sum(abs(c) ** 2 for c in spec.coefficients)
    except OverflowError:  # a weight beyond the float range
        total = math.inf
    deficit = abs(total - vs.coefficient_norm)
    if not deficit <= NORM_ATOL:
        raise NormalizationError(
            f"coefficient weights must sum to {vs.coefficient_norm}", deficit
        )
    rows = _secret_rows(spec.variant, [spec.coefficients])
    return StateVector(rows[0])


@functools.cache
def _secret_layout(variant: Variant) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude index of each class ket and the coefficient weighing it:
    coefficient j weighs an equal run of the kets (kets 0..3 one each in the
    three-qubit variants, kets 0,1 and 2,3 in ``four``)."""
    vs = VARIANT_SPECS[variant]
    slots = np.array([int(k, 2) for k in vs.secret_kets])
    picks = np.arange(len(slots)) * vs.coefficient_count // len(slots)
    slots.flags.writeable = False
    picks.flags.writeable = False
    return slots, picks


def _secret_rows(
    variant: Variant, coefficients: np.ndarray | list[tuple[complex, ...]]
) -> np.ndarray:
    """Amplitude rows of in-class secrets, one per row of class coefficients
    (no checks)."""
    slots, picks = _secret_layout(variant)
    coeffs = np.asarray(coefficients, dtype=complex)
    rows = np.zeros((len(coeffs), 2 ** VARIANT_SPECS[variant].secret_qubits), complex)
    # adding to zeros turns a -0.0 part into 0.0: the bits that 0.1.0 writes
    rows[:, slots] += coeffs[:, picks]
    return rows


def _draw_coefficients(variant: Variant, normals: np.ndarray) -> np.ndarray:
    """Normalized complex Gaussian class coefficients from ``normals``, one
    row of ``2 * coefficient_count`` per secret: (rows, coefficient_count).

    A row is one ``normal(size=2 * count)`` call, real parts first: the
    stream of two ``size=count`` calls. Each row is then scaled to the class
    norm by its ``np.linalg.norm``, taken with that function's
    floating-point operations: ``vecdot`` makes the dot products on real and
    imaginary parts 16 bytes apart, as ``norm`` does on a complex row's
    ``.real`` and ``.imag``. BLAS sums contiguous slices in another order,
    and the last bit would drift.
    """
    vs = VARIANT_SPECS[variant]
    count = vs.coefficient_count
    # (trials, count, 2): each real part beside its imaginary part, the
    # floats of a + 1j * b, since normal() never returns -0.0
    parts = normals.reshape(-1, 2, count).transpose(0, 2, 1).copy()
    re, im = parts[..., 0], parts[..., 1]
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    # a real factor on the floats: the bits of the complex product
    parts *= (math.sqrt(vs.coefficient_norm) / norms)[:, None, None]
    return parts.view(complex)[..., 0]


def random_secret(variant: Variant, rng: np.random.Generator) -> SecretSpec:
    """Normalized complex Gaussian coefficients inside the class, from one
    ``normal(size=2 * coefficient_count)`` call on ``rng``."""
    normals = rng.normal(size=(1, 2 * VARIANT_SPECS[variant].coefficient_count))
    return SecretSpec(variant, _draw_coefficients(variant, normals)[0].tolist())


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); order of creation is irrelevant."""
    return np.random.default_rng([_integer(n, "seed or key") for n in (seed, *key)])


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size and
# the constants of its hashmix on entropy (A), on output (B), and of its mix
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@functools.cache
def _hashmix_constants(
    value: int, mult: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant each of ``count`` successive hashmix calls XORs in
    and the one it multiplies by, as two ``(count, 1)`` ``uint32`` columns."""
    chain = [value]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, np.uint32)[:, None]
    column.flags.writeable = False
    return column[:-1], column[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult  # uint32 arrays wrap without a warning
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for each column
    of ``entropy``, a ``(words, trials)`` ``uint32`` array; row k of the
    result is column k's state.

    SeedSequence's loops, with the calls that share an operand made as one:
    a pool word feeds the other three in turn, and so does each entropy
    word past the pool.
    """
    length = len(entropy)
    calls = _POOL_SIZE * max(length, _POOL_SIZE)
    xor, mult = _hashmix_constants(_INIT_A, _MULT_A, calls)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), np.uint32)
    pool[:length] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        mixed = _hashmix(pool[src], xor[k : k + len(dst)], mult[k : k + len(dst)])
        pool[dst] = _mix(pool[dst], mixed)
        k += len(dst)
    for word in entropy[_POOL_SIZE:]:
        mixed = _hashmix(word, xor[k : k + _POOL_SIZE], mult[k : k + _POOL_SIZE])
        pool = _mix(pool, mixed)
        k += _POOL_SIZE
    # 8 uint32 words from the pool, cycled, read as 4 little-endian uint64
    xor, mult = _hashmix_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = _hashmix(np.tile(pool, (2, 1)), xor, mult)
    return np.ascontiguousarray(words.T, "<u4").view("<u8").astype(np.uint64)


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, lowest first, as
    SeedSequence splits it (0 is one word)."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


@functools.cache
def _preseeded() -> type:
    """An ISeedSequence that hands PCG64 words hashed beforehand. It is made
    on first use: ``numpy.random`` loads only then, not on ``import``."""
    from numpy.random.bit_generator import ISeedSequence

    class Preseeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for (4, np.uint64)

    return Preseeded


def _stacked_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of ``substream(seed, t)`` for ``t`` in ``start ..
    stop - 1``, one ``(4,)`` ``uint64`` row per trial.

    ``substream(seed, t)`` seeds PCG64 with the SeedSequence hash of the
    32-bit words of seed and then of t, lowest first. That hash runs here as
    ``uint32`` array arithmetic over a run of trials that differ only in t's
    lowest word at a time.
    """
    seed_words = _uint32_words(int(seed))
    runs = []
    lo = start
    while lo < stop:
        # trials lo .. hi - 1 share every word of lo but the lowest
        hi = min(stop, (lo | _MASK32) + 1)
        words = np.array([*seed_words, *_uint32_words(lo)], np.uint32)
        entropy = np.repeat(words[:, None], hi - lo, axis=1)
        entropy[len(seed_words)] += np.arange(hi - lo, dtype=np.uint32)
        runs.append(_pcg64_seeds(entropy))
        lo = hi
    return np.concatenate(runs)


# PCG64 (numpy/random/src/pcg64): the multiplier of its 128-bit LCG
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1


@functools.cache
def _pcg64_coefficients(count: int) -> tuple[np.ndarray, ...]:
    """``A_k`` and ``B_k`` for ``k < count``: PCG64 seeded with (s, inc)
    gives output k from the state ``A_k * s + B_k * inc`` (mod 2**128).

    Seeding steps the zero state (``x -> M * x + inc``), adds s and steps
    again; output k steps k + 1 times more. So ``A_k = M**(k + 2)`` and
    ``B_k = 1 + M + ... + M**(k + 2)``. Returned as the high and low
    ``uint64`` halves of A, then of B, each a ``(count, 1)`` column.
    """
    mod = 1 << 128
    power, total, a, b = _PCG64_MULT, 1 + _PCG64_MULT, [], []
    for _ in range(count):
        power = power * _PCG64_MULT % mod
        total = (total + power) % mod
        a.append(power)
        b.append(total)
    halves = []
    for column in (a, b):
        halves.append(np.array([[n >> 64] for n in column], np.uint64))
        halves.append(np.array([[n & _MASK64] for n in column], np.uint64))
    for half in halves:
        half.flags.writeable = False
    return tuple(halves)


def _mulhi(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * x`` of ``uint64``
    arrays, from their 32-bit halves (uint64 arrays wrap without a warning)."""
    a0, a1, x0, x1 = a & _MASK32, a >> 32, x & _MASK32, x >> 32
    p01, p10 = a0 * x1, a1 * x0
    mid = (a0 * x0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of PCG64 seeded with each row of
    ``seeds``, SeedSequence's ``(4,)`` ``uint64`` state: (count, rows), row k
    every generator's output k.

    numpy's PCG64 takes the first two words as s (high word first) and the
    next two as the stream, whose increment is ``stream << 1 | 1``. Output
    k is XSL-RR of the state ``A_k * s + B_k * inc`` (``_pcg64_coefficients``),
    made here from 64-bit halves: the two halves XORed, rotated right by the
    state's top 6 bits.
    """
    s_hi, s_lo, stream_hi, stream_lo = seeds.T
    inc_hi, inc_lo = stream_hi << 1 | stream_lo >> 63, stream_lo << 1 | 1
    a_hi, a_lo, b_hi, b_lo = _pcg64_coefficients(count)
    low_a = a_lo * s_lo
    lo = low_a + b_lo * inc_lo
    hi = (
        _mulhi(a_lo, s_lo) + a_lo * s_hi + a_hi * s_lo
        + _mulhi(b_lo, inc_lo) + b_lo * inc_hi + b_hi * inc_lo
        + (lo < low_a)  # the carry out of the low halves' sum
    )
    xored, rotation = hi ^ lo, hi >> 58
    return xored >> rotation | xored << ((64 - rotation) & 63)


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables (``_ziggurat``) indexed by a word's low nine
    bits, its layer and its sign: ``KI`` twice as ``uint64``, and ``WI``
    then ``-WI``, the scale that gives the signed normal (a product's sign
    is the XOR of its factors')."""
    from ._ziggurat import KI, WI

    ki = np.array(KI * 2, np.uint64)
    wi = np.array(WI, np.float64)
    wi = np.concatenate([wi, -wi])
    ki.flags.writeable = wi.flags.writeable = False
    return ki, wi


def _ziggurat_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal``'s fast path on each word, as ``normal()`` returns
    it, and whether the fast path takes the word: numpy draws more words
    for a normal where it does not."""
    ki, wi = _ziggurat_tables()
    key = words & 0x1FF
    magnitude = words >> 9 & (2**52 - 1)
    normals = magnitude.astype(np.float64)
    normals *= wi[key]
    # normal(loc=0.0) adds loc: a -0.0 becomes 0.0
    normals += 0.0
    return normals, magnitude < ki[key]


def _trial_draws(
    seed: int, start: int, stop: int, normals: int, uniforms: int
) -> tuple[np.ndarray, np.ndarray]:
    """What trials ``start .. stop - 1`` draw first from ``substream(seed,
    t)``: ``normal(size=normals)``, then ``uniforms`` calls of ``random()``,
    as a (trials, normals) and a (uniforms, trials) array.

    No generator is built per trial. ``_stacked_seeds`` hashes every trial's
    seed, and ``_pcg64_words`` gives each trial's first ``normals +
    uniforms`` PCG64 outputs. A normal is numpy's ziggurat fast path on one
    word; a uniform is ``(word >> 11) * 2**-53``, as ``random()`` makes it.
    A trial with a word the fast path rejects draws more words, so it is
    drawn again by a ``Generator`` of its own, seeded with the same words.
    Trial ``start`` is also drawn by ``substream`` and the two are compared:
    a mismatch raises RuntimeError, and a negative seed raises numpy's
    ValueError. Nothing is drawn, and no generator built, when both counts
    are 0.
    """
    if normals + uniforms == 0:
        return np.empty((stop - start, 0)), np.empty((0, stop - start))
    check = substream(seed, start)
    seeds = _stacked_seeds(seed, start, stop)
    words = _pcg64_words(seeds, normals + uniforms)
    gaussian, fast = _ziggurat_normals(words[:normals])
    gaussian = gaussian.T.copy()
    uniform = (words[normals:] >> 11) * 2.0**-53
    generator, pcg64, preseeded = np.random.Generator, np.random.PCG64, _preseeded()
    for t in np.flatnonzero(~np.logical_and.reduce(fast, axis=0)).tolist():
        rng = generator(pcg64(preseeded(seeds[t])))
        gaussian[t] = rng.normal(size=normals)
        uniform[:, t] = rng.random(uniforms)
    want = np.concatenate([check.normal(size=normals), check.random(uniforms)])
    if np.concatenate([gaussian[0], uniform[:, 0]]).tobytes() != want.tobytes():
        raise RuntimeError(
            f"the stacked draw of trial {start} differs from substream({seed}, {start})"
        )
    return gaussian, uniform


def alice_cbits(outcome: int) -> str:
    """The four classical bits Alice broadcasts for her outcome."""
    return format(outcome, "04b")


# ---------------------------------------------------------------------------
# Alice's measurement bases
# ---------------------------------------------------------------------------


def build_alice_basis(
    variant: Variant | str, encoding: str = CANONICAL
) -> OrthonormalBasis:
    """Alice's five-qubit measurement basis, one Pauli frame per outcome,
    built once per (variant, encoding) however the call spells them (the
    variant by its ``Variant`` or its name).

    Vector i is ``X**x Z**z`` on the equal superposition of the variant's
    ``alice_anchor`` kets, where the high bits of i set x on the
    ``alice_flips`` qubits and its low bits set z on the ``alice_phases``.
    That is ``(-1)**popcount(x & z)`` times the anchor under statevec's
    Pauli rule for the masks (x, z), which applies ``Z**z X**x``.
    ``encoding="literal"`` reproduces the source verbatim, unchecked for
    orthonormality, with its two defects: its sign expansion reverses the
    phase qubits (a label swap in the 16-outcome bases), and its ``four``
    basis repeats vector 2 as vector 3.
    """
    # checked before the cache, which cannot hash every wrong value
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    return _alice_basis(Variant.parse(variant), encoding)


@functools.cache
def _alice_basis(variant: Variant, encoding: str) -> OrthonormalBasis:
    vs = VARIANT_SPECS[variant]
    width = len(vs.alice_anchor[0])
    phases = vs.alice_phases[::-1] if encoding == LITERAL else vs.alice_phases
    # bit j of i, most significant first, drives qubit frame[j]
    frame = (*vs.alice_flips, *phases)
    anchor = np.zeros(2**width)
    anchor[[int(ket, 2) for ket in vs.alice_anchor]] = 0.5
    vectors = []
    for i in range(vs.num_outcomes):
        bits = format(i, f"0{len(frame)}b")
        on = [1 << (width - 1 - q) if b == "1" else 0 for q, b in zip(frame, bits)]
        x, z = sum(on[: len(vs.alice_flips)]), sum(on[len(vs.alice_flips) :])
        source, sign = _xor_sign_tables(2**width, x, z)
        order = (-1.0) ** bin(x & z).count("1")  # X**x Z**z = order * Z**z X**x
        # + 0.0 turns the -0.0 a sign flip leaves on a zero component into 0.0
        vectors.append(StateVector(order * sign * anchor[source] + 0.0))
    if encoding == LITERAL and variant is Variant.FOUR:
        vectors[3] = vectors[2]
    return OrthonormalBasis(
        tuple(range(width)), tuple(vectors), validate=(encoding == CANONICAL)
    )


# the cache's hits and misses, read through the public name
build_alice_basis.cache_info = _alice_basis.cache_info


@functools.cache
def _alice_measurement(variant: Variant, basis: OrthonormalBasis) -> LiftedBasis:
    """Alice's measurement in ``basis`` of secret rows (x) the channel, built
    on first use per (variant, basis). Each channel ket fixes Bob's and
    Charlie's bits, so a branch amplitude is one secret amplitude times a
    constant (two in ``four``), with the dense projection's bits."""
    qubits = VARIANT_SPECS[variant].secret_qubits
    return LiftedBasis.of(basis, build_channel(variant), qubits)


# ---------------------------------------------------------------------------
# Published correction tables (verbatim, defects included)
# ---------------------------------------------------------------------------

_PUBLISHED_ROWS = {
    Variant.THREE_A: {
        (0, 0): ("I", "I", "I"), (0, 1): ("Z", "I", "I"),
        (1, 0): ("I", "Z", "I"), (1, 1): ("Z", "Z", "I"),
        (2, 0): ("Z", "I", "I"), (2, 1): ("I", "I", "I"),
        (3, 0): ("Z", "Z", "I"), (3, 1): ("I", "Z", "I"),
        (4, 0): ("I", "X", "X"), (4, 1): ("Z", "X", "X"),
        (5, 0): ("I", "iY", "X"), (5, 1): ("Z", "iY", "X"),
        (6, 0): ("Z", "X", "X"), (6, 1): ("I", "X", "X"),
        (7, 0): ("Z", "iY", "X"), (7, 1): ("I", "iY", "X"),
        (8, 0): ("X", "I", "I"), (8, 1): ("iY", "I", "I"),
        (9, 0): ("X", "Z", "I"), (9, 1): ("iY", "Z", "I"),
        (10, 0): ("iY", "I", "I"), (10, 1): ("X", "I", "I"),
        (11, 0): ("iY", "Z", "I"), (11, 1): ("X", "Z", "I"),
        (12, 0): ("X", "X", "X"), (12, 1): ("iY", "X", "X"),
        (13, 0): ("X", "iY", "X"), (13, 1): ("iY", "iY", "X"),
        (14, 0): ("iY", "X", "X"), (14, 1): ("X", "X", "X"),
        (15, 0): ("iY", "iY", "X"), (15, 1): ("X", "iY", "X"),
    },
    Variant.THREE_B: {
        (0, 0): ("I", "I", "I"), (0, 1): ("I", "Z", "I"),
        (1, 0): ("I", "I", "Z"), (1, 1): ("I", "Z", "Z"),
        (2, 0): ("I", "Z", "I"), (2, 1): ("I", "I", "I"),
        (3, 0): ("I", "Z", "Z"), (3, 1): ("I", "I", "Z"),
        (4, 0): ("I", "I", "X"), (4, 1): ("I", "Z", "X"),
        (5, 0): ("I", "I", "iY"), (5, 1): ("I", "Z", "iY"),
        (6, 0): ("I", "Z", "X"), (6, 1): ("I", "I", "X"),
        (7, 0): ("I", "Z", "iY"), (7, 1): ("I", "I", "iY"),
        (8, 0): ("X", "X", "I"), (8, 1): ("X", "iY", "I"),
        (9, 0): ("X", "X", "Z"), (9, 1): ("X", "iY", "Z"),
        (10, 0): ("X", "iY", "I"), (10, 1): ("X", "X", "I"),
        (11, 0): ("X", "iY", "Z"), (11, 1): ("X", "X", "Z"),
        (12, 0): ("X", "X", "X"), (12, 1): ("X", "iY", "X"),
        (13, 0): ("X", "X", "iY"), (13, 1): ("X", "iY", "iY"),
        (14, 0): ("X", "iY", "X"), (14, 1): ("X", "X", "X"),
        (15, 0): ("X", "iY", "iY"), (15, 1): ("X", "X", "iY"),
    },
    Variant.FOUR: {
        (0, 0): ("I", "I", "I", "I"), (0, 1): ("I", "I", "Z", "I"),
        (1, 0): ("I", "Z", "I", "I"), (1, 1): ("I", "Z", "Z", "I"),
        (2, 0): ("X", "X", "I", "I"), (2, 1): ("X", "X", "Z", "I"),
        (3, 0): ("X", "iY", "I", "I"), (3, 1): ("X", "iY", "Z", "I"),
    },
}


@dataclass(frozen=True)
class CorrectionTable:
    """Mapping (alice_outcome, charlie_bit) -> Bob's Pauli correction."""

    variant: Variant
    source: str
    rows: dict[tuple[int, int], PauliString]

    def __getitem__(self, key: tuple[int, int]) -> PauliString:
        outcome, bit = key
        try:
            return self.rows[(_integer(outcome, "outcome"), _integer(bit, "bit"))]
        except KeyError:
            raise KeyError(
                f"no row for outcome {outcome}, bit {bit} in "
                f"{self.variant.value} table"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[tuple[int, int, PauliString]]:
        return [(i, b, self.rows[(i, b)]) for i, b in sorted(self.rows)]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "source": self.source,
            "rows": [
                {
                    "alice_outcome": i,
                    "alice_cbits": alice_cbits(i),
                    "charlie_bit": b,
                    "correction": list(p.labels),
                }
                for i, b, p in self.sorted_rows()
            ],
        }


def published_correction_table(variant: Variant | str) -> CorrectionTable:
    """The reference corrections exactly as tabulated in the source, built
    once per variant, given by its ``Variant`` or its name."""
    return _published_table(Variant.parse(variant))


@functools.cache
def _published_table(variant: Variant) -> CorrectionTable:
    rows = {
        key: PauliString(labels)
        for key, labels in _PUBLISHED_ROWS[variant].items()
    }
    return CorrectionTable(variant, "published", rows)


# ---------------------------------------------------------------------------
# Protocol execution
# ---------------------------------------------------------------------------


class OutcomeWeight(NamedTuple):
    alice_outcome: int
    charlie_bit: int
    probability: float

    def to_dict(self) -> dict:
        return {
            "alice_outcome": self.alice_outcome,
            "charlie_bit": self.charlie_bit,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol run."""

    variant: Variant
    secret: SecretSpec | StateVector
    alice_outcome: int
    alice_cbits: str
    charlie_bit: int
    correction: PauliString
    bob_state_before: StateVector
    bob_state_after: StateVector
    fidelity: float
    probabilities: tuple[OutcomeWeight, ...]

    @property
    def messages(self) -> dict[str, str]:
        """Classical messages: four bits from Alice, one from Charlie."""
        return {
            "alice_to_bob": self.alice_cbits,
            "charlie_to_bob": str(self.charlie_bit),
        }

    def to_dict(self) -> dict:
        if isinstance(self.secret, SecretSpec):
            secret = {"kind": "coefficients", **self.secret.to_dict()}
        else:
            secret = {
                "kind": "state",
                "variant": self.variant.value,
                "amplitudes": self.secret.amplitude_pairs(),
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "variant": self.variant.value,
            "secret": secret,
            "alice_outcome": self.alice_outcome,
            "alice_cbits": self.alice_cbits,
            "charlie_bit": self.charlie_bit,
            "messages": self.messages,
            "correction": list(self.correction.labels),
            "bob_state_before": self.bob_state_before.amplitude_pairs(),
            "bob_state_after": self.bob_state_after.amplitude_pairs(),
            "fidelity": self.fidelity,
            "probabilities": [w.to_dict() for w in self.probabilities],
        }


def _resolve_secret(
    secret: SecretSpec | StateVector, variant: Variant | str | None
) -> tuple[Variant, StateVector]:
    if variant is not None:
        variant = Variant.parse(variant)
    if isinstance(secret, SecretSpec):
        if variant is not None and variant is not secret.variant:
            raise ValueError("variant argument contradicts the secret's variant")
        return secret.variant, secret.state
    if variant is None:
        raise ValueError("a raw state secret needs an explicit variant")
    vs = VARIANT_SPECS[variant]
    if secret.num_qubits != vs.secret_qubits:
        raise ValueError(
            f"{variant.value} secrets have {vs.secret_qubits} qubits, "
            f"got {secret.num_qubits}"
        )
    return variant, secret


def _resolve_forced(
    forced: tuple[int, int] | None, variant: Variant
) -> tuple[int, int] | None:
    """``forced`` as a pair of ints that names a row of ``variant``: a bool,
    a non-integer, a value out of range or a non-pair is refused."""
    if forced is None:
        return None
    try:
        outcome, bit = forced  # a sequence of another length keeps its message
    except TypeError:
        raise ValueError(f"forced must be a pair of integers, got {forced!r}") from None
    outcome, bit = _integer(outcome, "alice_outcome"), _integer(bit, "charlie_bit")
    limit = VARIANT_SPECS[variant].num_outcomes
    if not 0 <= outcome < limit:
        raise ValueError(
            f"forced outcome must be in [0, {limit}) for {variant.value}, "
            f"got {outcome}"
        )
    if bit not in (0, 1):
        raise ValueError(f"forced charlie bit must be 0 or 1, got {bit}")
    return outcome, bit


def _hadamard_halves(branches: np.ndarray) -> np.ndarray:
    """``h0 + h1`` and ``h0 - h1`` along axis -2 of Alice's (stacked)
    branches, h0 and h1 a branch's halves with Charlie's qubit, the last,
    at 0 and 1: Charlie's |+> and |-> components times sqrt(2)."""
    half = branches.reshape(*branches.shape[:-1], -1, 2)
    signed = np.empty((*half.shape[:-2], 2, half.shape[-2]), complex)
    np.add(half[..., 0], half[..., 1], out=signed[..., 0, :])
    np.subtract(half[..., 0], half[..., 1], out=signed[..., 1, :])
    return signed


def _joint_weights(branches: np.ndarray) -> np.ndarray:
    """Joint weights ``[..., outcome, bit]`` from Alice's (stacked) branches."""
    signed = _hadamard_halves(branches)
    signed /= np.sqrt(2.0)
    return _probabilities(signed)


def _outcome_weights(weights: np.ndarray) -> tuple[OutcomeWeight, ...]:
    rows = enumerate(weights.tolist())  # weights[outcome, bit]
    return tuple(OutcomeWeight(i, b, p) for i, row in rows for b, p in enumerate(row))


def outcome_distribution(
    secret: SecretSpec | StateVector, *, variant: Variant | str | None = None
) -> tuple[OutcomeWeight, ...]:
    """Exact joint probabilities of (alice_outcome, charlie_bit)."""
    variant, secret_state = _resolve_secret(secret, variant)
    combined = tensor_product(secret_state, build_channel(variant))
    branches, _ = build_alice_basis(variant).project(combined.amplitudes[None])
    return _outcome_weights(_joint_weights(branches)[0])


# trials the kernel stacks per call: Alice's branches take 512 KiB at most
TRIAL_CHUNK = 128


@dataclass(frozen=True, eq=False)
class TrialChunk:
    """The trial kernel's arrays for consecutive trials run as one stack;
    entry or row t is the chunk's trial t. ``coefficients`` are the trials'
    class coefficients, drawn or fixed; None in ``run_protocol``'s chunk."""

    variant: Variant
    coefficients: np.ndarray | None
    alice_outcomes: list[int]
    charlie_bits: list[int]
    corrections: list[PauliString]
    bob_before: np.ndarray
    bob_after: np.ndarray
    fidelities: list[float]
    alice_branches: np.ndarray


def _run_chunk(
    variant: Variant,
    coefficients: np.ndarray | None,
    secret_rows: np.ndarray,
    uniforms: np.ndarray | None,
    forced: tuple[int, int] | None,
    table: CorrectionTable,
) -> TrialChunk:
    """The trial kernel: one protocol round per secret row, all stacked.

    Unless ``forced`` pins both outcomes, trial t samples Alice's outcome
    with ``uniforms[0][t]`` and Charlie's with ``uniforms[1][t]``, a (2,
    rows) array. Every step is the same floating-point operation per row as
    on a single state.
    """
    basis = _alice_measurement(variant, build_alice_basis(variant))
    bob = VARIANT_SPECS[variant].bob_qubits  # Charlie's qubit follows Bob's
    if forced is None:
        alice = measure_in_basis(secret_rows, basis, uniforms[0])
        charlie = measure_hadamard(alice.residual, bob, uniforms[1])
    else:
        alice = force_basis_outcome(secret_rows, basis, forced[0])
        charlie = force_hadamard_outcome(alice.residual, bob, forced[1])

    keys = list(zip(alice.outcome.tolist(), charlie.outcome.tolist()))
    rows = table.rows  # the keys are ints; a missing one raises the table's KeyError
    corrections = [rows[key] if key in rows else table[key] for key in keys]
    bob_after = apply_pauli_string(charlie.residual, corrections)
    check_normalized(bob_after)
    return TrialChunk(
        variant=variant,
        coefficients=coefficients,
        alice_outcomes=[i for i, _ in keys],
        charlie_bits=[b for _, b in keys],
        corrections=corrections,
        bob_before=charlie.residual,
        bob_after=bob_after,
        fidelities=fidelity(bob_after, secret_rows),
        alice_branches=alice.branches,
    )


# trials whose random draws are made as one stack: eight kernel chunks
TRIAL_BLOCK = 8 * TRIAL_CHUNK


def run_trials(
    variant: Variant | str,
    seed: int,
    trials: int,
    *,
    secret: SecretSpec | None = None,
    forced: tuple[int, int] | None = None,
) -> Iterator[TrialChunk]:
    """Trials ``0 .. trials - 1`` with the published table, ``TRIAL_CHUNK``
    at a time; ``secret`` and ``forced`` are checked as ``run_protocol`` does.

    Trial t draws from ``substream(seed, t)`` alone: its random secret
    (``normal(size=2 * count)``) unless ``secret`` fixes one, then one
    ``random()`` for Alice's outcome and one for Charlie's unless ``forced``
    pins them. Those draws are made ``TRIAL_BLOCK`` trials at a time as
    array arithmetic (``_trial_draws``): PCG64's outputs in closed form from
    each trial's hashed seed, and numpy's ziggurat fast path on them. The
    few trials whose normals leave the fast path are drawn by a generator
    of their own, and each block's first trial is checked against
    ``substream``'s own calls. A forced run with a fixed secret draws
    nothing. The secrets are one stacked ``_draw_coefficients``, row t bit
    for bit ``random_secret``'s, or the fixed coefficients repeated;
    ``_secret_rows`` makes the amplitude rows, ``build_secret``'s bits, so
    no trial needs a ``SecretSpec``. A trial's result does not depend on
    the blocks, the chunks or the other trials.
    """
    variant = Variant.parse(variant)
    if secret is not None:
        if not isinstance(secret, SecretSpec):  # a raw state has no coefficients
            raise ValueError(f"a fixed secret must be a SecretSpec, got {secret!r}")
        _resolve_secret(secret, variant)
    forced = _resolve_forced(forced, variant)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # checked here too: a forced run with a fixed secret builds no generator
    seed = _integer(seed, "seed or key")
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence says
    table = published_correction_table(variant)
    normals = 0 if secret is not None else 2 * VARIANT_SPECS[variant].coefficient_count
    uniforms = 0 if forced is not None else 2
    for block in range(0, trials, TRIAL_BLOCK):
        stop = min(block + TRIAL_BLOCK, trials)
        gaussian, uniform = _trial_draws(seed, block, stop, normals, uniforms)
        if secret is None:
            coefficients = _draw_coefficients(variant, gaussian)
        else:
            coefficients = np.array([secret.coefficients] * (stop - block))
        for lo in range(0, stop - block, TRIAL_CHUNK):
            part = coefficients[lo : lo + TRIAL_CHUNK]
            # Alice's projection checks the rows' norms
            rows = _secret_rows(variant, part)
            draws = uniform[:, lo : lo + TRIAL_CHUNK]
            yield _run_chunk(variant, part, rows, draws, forced, table)


def run_protocol(
    secret: SecretSpec | StateVector,
    *,
    variant: Variant | str | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    forced: tuple[int, int] | None = None,
    table: CorrectionTable | None = None,
) -> Transcript:
    """Execute one full splitting round and return its transcript.

    Unless ``forced=(alice_outcome, charlie_bit)``, a row of the variant,
    pins them, ``rng.random((2, 1))`` (or ``seed``'s generator's) gives
    Alice's uniform, then Charlie's, once the secret's class is checked: a
    secret outside it raises OutOfSpanError, with nothing drawn. ``table``,
    of the same variant, overrides the published table. This is the trial
    kernel run on a single trial, and the only place that builds a
    ``Transcript``.
    """
    if rng is not None and seed is not None:
        raise ValueError("pass rng or seed, not both")
    if rng is not None and not hasattr(rng, "random"):
        raise ValueError(f"rng must be a numpy Generator, got {rng!r}")
    variant, secret_state = _resolve_secret(secret, variant)
    forced = _resolve_forced(forced, variant)
    if table is None:
        table = published_correction_table(variant)
    elif table.variant != variant:  # a Variant equals its name
        other = Variant.parse(table.variant).value
        raise ValueError(f"table is for {other}, not {variant.value}")
    if seed is not None:
        rng = substream(seed)
    rows, uniforms = secret_state.amplitudes[None], None
    if forced is None:
        if rng is None:
            raise ValueError("need rng, seed, or forced outcomes")
        if not isinstance(secret, SecretSpec):  # a raw state may lie outside
            basis = _alice_measurement(variant, build_alice_basis(variant))
            _check_span(basis.project(rows)[1])
        uniforms = rng.random((2, 1))
    chunk = _run_chunk(variant, None, rows, uniforms, forced, table)
    outcome = chunk.alice_outcomes[0]
    return Transcript(
        variant=variant,
        secret=secret,
        alice_outcome=outcome,
        alice_cbits=alice_cbits(outcome),
        charlie_bit=chunk.charlie_bits[0],
        correction=chunk.corrections[0],
        bob_state_before=StateVector(chunk.bob_before[0]),
        bob_state_after=StateVector(chunk.bob_after[0]),
        fidelity=chunk.fidelities[0],
        probabilities=_outcome_weights(_joint_weights(chunk.alice_branches)[0]),
    )
