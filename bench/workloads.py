"""Benchmark workloads as lists of ghzsplit command lines.

A workload is one pass: a fixed list of CLI argument vectors generated from
the workload seed. A run repeats the same pass, so every pass does the same
work and produces the same bytes. The program sees nothing but these
argument vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = ("three-a", "three-b", "four")

# ``--trials`` per ``run`` call. The sizes span two orders of magnitude so
# that per-call cost and per-trial cost can be told apart.
RUN_SIZES = (10, 100, 1000)

# Rows of each variant's correction table: 2 * (Alice's outcome count).
TABLE_ROWS = {"three-a": 32, "three-b": 32, "four": 8}


@dataclass(frozen=True)
class Op:
    """One CLI call and the number of items it processes.

    An item is a protocol trial for ``run`` and a table row graded or
    derived for ``verify`` and ``export``.
    """

    argv: tuple[str, ...]
    items: int


def trial_ops(seed: int, fmt: str) -> list[Op]:
    """``run`` calls with random secrets and sampled outcomes.

    The calls cycle through the variants; each variant gets every size in
    ``RUN_SIZES`` once, in a seed-chosen order, with a seed-chosen CLI seed.
    The draws do not depend on ``fmt``, so both formats run the same trials.
    """
    rng = random.Random(seed)
    orders = {v: rng.sample(RUN_SIZES, len(RUN_SIZES)) for v in VARIANTS}
    ops = []
    for step in range(len(RUN_SIZES)):
        for variant in VARIANTS:
            trials = orders[variant][step]
            argv = (
                "run", "--variant", variant, "--trials", str(trials),
                "--seed", str(rng.randrange(2**32)), "--format", fmt,
            )
            ops.append(Op(argv, trials))
    return ops


def audit_ops(seed: int) -> list[Op]:
    """Both table audits plus a derived-table export per variant."""
    all_rows = sum(TABLE_ROWS.values())
    ops = [
        Op(("verify", "--all"), all_rows),
        Op(("verify", "--all", "--paper-literal"), all_rows),
    ] + [
        Op(
            ("export", "--variant", v, "--what", "table", "--source", "derived"),
            TABLE_ROWS[v],
        )
        for v in VARIANTS
    ]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "trials-csv": lambda seed: trial_ops(seed, "csv"),
    "trials-json": lambda seed: trial_ops(seed, "json"),
    "audit": audit_ops,
}
