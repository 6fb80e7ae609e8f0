"""Cold start of the program: import it and run its first mine.

Run in a fresh interpreter by the session (``python coldstart.py FILE
SMIN OUT``).  Prints one JSON line with the wall time of the import
plus the mine, the calibration factor around it and the exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibration import Calibrator  # noqa: E402


def main() -> int:
    path, smin, out = sys.argv[1:4]
    cal = Calibrator()
    cal.probe()  # first loop of a fresh interpreter runs unspecialised
    before = cal.probe()
    begin = time.perf_counter()
    from repro.cli import main as cli_main

    code = cli_main(["mine", path, "-s", smin, "-o", out, "--backend", "bitint"])
    wall_ms = (time.perf_counter() - begin) * 1000.0
    after = cal.probe()
    print(json.dumps({
        "exit": code,
        "wall_ms": wall_ms,
        "factor": cal.factor(before, after),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
