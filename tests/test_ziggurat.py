"""The committed ziggurat tables against the installed numpy.

``ghzsplit._ziggurat`` holds numpy's ``ki_double`` and ``wi_double``, which
``_numpy_bits.trial_draws`` uses to make standard normals from PCG64 words without a
generator. Here each entry is read back from numpy itself: a PCG64 state is
crafted so that its next output is a chosen word, and ``standard_normal``
shows what it makes of it. A numpy with another ziggurat fails here instead
of changing the bytes a run writes.
"""

import numpy as np

from ghzsplit._ziggurat import KI, WI
from ghzsplit._numpy_bits import _PCG64_MULT

MOD = 1 << 128
MAGNITUDE = 2**52  # a word's magnitude has 52 bits


def crafted(first: int, second: int = 0) -> np.random.PCG64:
    """PCG64 whose next two outputs are the words ``first`` and ``second``.

    A step is ``state * MULT + inc``; a state whose high half is 0 outputs
    its low half (XSL-RR neither XORs nor rotates it). So the stepped state
    is ``first`` itself, and ``inc`` is what takes it on to ``second``.
    """
    inc = (second - first * _PCG64_MULT) % MOD
    state = (first - inc) * pow(_PCG64_MULT, -1, MOD) % MOD
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def word(layer: int, magnitude: int, negative: bool = False) -> int:
    return magnitude << 9 | negative << 8 | layer


def test_crafted_state_outputs_the_chosen_words():
    for first, second in ((0, 0), (2**64 - 1, 1), (word(7, 5), word(255, 9))):
        assert crafted(first, second).random_raw(2).tolist() == [first, second]


def test_tables_have_a_layer_each():
    assert len(KI) == len(WI) == 256
    assert all(0 <= bound < MAGNITUDE for bound in KI)
    assert [layer for layer, bound in enumerate(KI) if bound == 0] == [1]


def test_every_scale_reads_back_exactly():
    # magnitude 1 is on the fast path of every layer but 1, whose bound is
    # 0; there a second word of 0 makes the slow path accept the same value
    bad = []
    for layer, scale in enumerate(WI):
        for negative in (False, True):
            rng = np.random.Generator(crafted(word(layer, 1, negative)))
            got = rng.standard_normal()
            if got.hex() != (-scale if negative else scale).hex():
                bad.append((layer, negative, got, scale))
    assert bad == []


def test_every_bound_is_the_first_magnitude_the_fast_path_rejects():
    # the fast path takes one word; a rejected word makes numpy draw more
    def words_taken(layer: int, magnitude: int) -> int:
        first = word(layer, magnitude)
        # a second word unlike the first: the state shows a second step
        bit_generator = crafted(first, first ^ 1)
        np.random.Generator(bit_generator).standard_normal()
        return 1 if bit_generator.state["state"]["state"] == first else 2

    bad = []
    for layer, bound in enumerate(KI):
        if bound > 0 and words_taken(layer, bound - 1) != 1:
            bad.append((layer, bound - 1, "rejected"))
        if words_taken(layer, bound) != 2:
            bad.append((layer, bound, "accepted"))
    assert bad == []
