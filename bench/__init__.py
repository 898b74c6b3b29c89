"""The repo's measuring stick: four workloads driven through
``repro.connect(...)``, two clocks, per-layer attribution.

See ``bench/README.md``; ``python3 -m bench.run --help`` for the command.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The program under test sits beside this package; find it without
# asking the caller for PYTHONPATH.
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
