"""Entry point named by ``BENCHMARK.json``:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Puts the checkout root and ``src/`` on ``sys.path`` (the program is pure
Python; there is nothing to build) and runs ``worker.main``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.e2e.worker import main  # noqa: E402 - after the path set-up

if __name__ == "__main__":
    raise SystemExit(main())
