"""Everything that reproduces numpy 2.4's unpromised bits, on which schema
1's output bytes rest: the draws (``trial_draws``) and the summation order
(``summation_tree``, ``tree_sum``), each checked as it is used."""

import functools

import numpy as np


class NumpyBitsError(RuntimeError):
    """numpy gave other bits than the ones reproduced here, on which
    ``run``'s and ``verify``'s output bytes depend."""


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


def trial_draws(
    substream, seed: int, start: int, stop: int, normals: int, uniforms: int
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
    a mismatch raises NumpyBitsError, and a negative seed raises numpy's
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
        raise NumpyBitsError(
            f"the stacked draw of trial {start} differs from substream({seed}, {start})"
        )
    return gaussian, uniform


def _reduce_order(columns: list[int]) -> int | tuple:
    """The additions ``np.add.reduce`` makes over a contiguous last axis
    holding ``columns``, as a tree of pairs of column indices.

    numpy's pairwise sum: under 8 terms, one after another; up to 128, 8
    accumulators, term k adding into accumulator k mod 8, joined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the terms past the last
    multiple of 8 one after another; above 128, two halves, the first a
    multiple of 8 long. The reduction starts from 0.0, which leaves a sum
    of squares unchanged.
    """
    n = len(columns)
    if n < 8:
        return functools.reduce(lambda a, b: (a, b), columns)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reduce_order(columns[:half]), _reduce_order(columns[half:])
    acc = list(columns[:8])
    stop = n - n % 8
    for k in range(8, stop):
        acc[k % 8] = acc[k % 8], columns[k]
    tree = ((acc[0], acc[1]), (acc[2], acc[3])), ((acc[4], acc[5]), (acc[6], acc[7]))
    return functools.reduce(lambda a, b: (a, b), columns[stop:], tree)


def _pruned(tree: int | tuple, column: dict[int, int]) -> int | tuple | None:
    """``tree`` with every ket outside ``column`` dropped, the others renamed
    to their columns: ``x + 0.0`` is x for any x >= +0.0, so a sum of
    squares keeps its bits. None if no ket of the tree is kept."""
    if not isinstance(tree, tuple):
        return column.get(tree)
    left, right = (_pruned(node, column) for node in tree)
    if left is None or right is None:
        return right if left is None else left
    return left, right


def summation_tree(width: int, live: tuple[int, ...]) -> int | tuple:
    """``_reduce_order`` on rows of ``width`` terms >= +0.0, +0.0 outside
    ``live``, kept for the live kets' columns; NumpyBitsError unless it adds
    full-mantissa squares of unlike magnitude as ``np.add.reduce`` does."""
    tree = _pruned(_reduce_order(list(range(width))), dict(zip(live, range(width))))
    k = np.arange(1.0, 1.0 + 64 * len(live))
    probe = (np.sqrt(k) * 2.0 ** (k % 11 - 5)).reshape(64, len(live))
    full = np.zeros((64, width))
    full[:, list(live)] = probe
    if tree_sum(tree, probe).tobytes() != np.add.reduce(full, axis=-1).tobytes():
        raise NumpyBitsError(
            f"the sum over kets {live} of {width} differs from "
            "numpy's add.reduce over the full rows"
        )
    return tree


def tree_sum(tree: int | tuple, terms: np.ndarray) -> np.ndarray:
    """The sum of the columns of ``terms`` (last axis) that ``tree`` names,
    added pair by pair as it nests them, as a new array."""
    if not isinstance(tree, tuple):
        return terms[..., tree].copy()
    left, right = tree
    return np.add(
        terms[..., left] if isinstance(left, int) else tree_sum(left, terms),
        terms[..., right] if isinstance(right, int) else tree_sum(right, terms),
    )
