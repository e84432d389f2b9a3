"""Make the benchmark's modules and the repro sources importable."""

import sys
from pathlib import Path

PIPELINE = Path(__file__).resolve().parents[1]
ROOT = PIPELINE.parents[1]

for path in (PIPELINE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
