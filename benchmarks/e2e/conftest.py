"""Make ``repro`` and the benchmark's modules importable for its tests.

Run the tests from the repository root with ``python -m pytest benchmarks/e2e``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parents[1] / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
