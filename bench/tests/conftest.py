"""Make the benchmark modules and the ghzsplit sources importable.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
