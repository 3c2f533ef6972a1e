"""Time one benchmark set-up in a fresh interpreter.

Set-up is what a user pays before the first answer: importing
``classinv`` and building the workload's seeded inputs.  Prints the
seconds it took as the only line on stdout.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import classinv  # noqa: E402,F401
import jobs  # noqa: E402

jobs.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - T0)
