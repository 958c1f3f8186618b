"""Runs ops of the frozen baseline copy of pappuslab in its own process.

``run.py`` starts one worker per timed run and, after each of the
program's ops, sends it one JSON line: a list of argv lists.  The worker
runs them with ``baseline/pappuslab`` (never the program under ``src``)
and answers with one line: the wall seconds they took, or ``error: ...``.
It exits when its stdin closes.

    python3 bench/baseline_worker.py <workdir>
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "baseline"


def main() -> int:
    workdir = sys.argv[1]
    os.environ.pop("PAPPUSLAB_PRECISION", None)
    sys.path.insert(0, str(BASELINE))
    import pappuslab.cli as cli

    if Path(cli.__file__).resolve().parent != BASELINE / "pappuslab":
        print("error: pappuslab imported from %s" % cli.__file__, flush=True)
        return 3
    out = os.path.join(workdir, "baseline-limit.csv")
    for line in sys.stdin:
        op = json.loads(line)
        begin = time.perf_counter()
        codes = []
        for argv in op:
            full = argv + ["--out", out] if argv[0] == "limit" else argv
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(full))
        elapsed = time.perf_counter() - begin
        # the calibration ops pass their checks; --mutate is never among them
        answer = repr(elapsed) if not any(codes) else "error: exit codes %s" % codes
        print(answer, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
