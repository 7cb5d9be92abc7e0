"""Entry point: ``python -m benchmarks.perf`` or this file's path.

``BENCHMARK.json`` names this file by path and cannot set
``PYTHONPATH``, so put the repo root (for ``benchmarks.perf``) and
``src`` (for ``repro``) in front of the script's own directory.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
