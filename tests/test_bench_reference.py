"""The benchmark's reference check, replayed in the tier-1 suite.

Every op recorded in ``bench/reference.json`` runs through
``pappuslab.cli.main`` and must pass the benchmark's own checks and
comparisons (``bench/workloads.py``), so an output drift past their
tolerances fails here rather than in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from pappuslab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
wl = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for its dataclasses
_spec.loader.exec_module(wl)


def _replay(argv, workdir: Path) -> tuple:
    """(exit code, report, CSV rows) of one invocation, with the
    ``--out`` path masked in the report as the benchmark masks it."""
    full, out = argv, None
    if argv[0] == "limit":
        out = workdir / "limit.csv"
        full = argv + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(full)
    report = wl.parse_report(stdout.getvalue())
    rows = None
    if out is not None:
        if report.get("out") == str(out):
            report["out"] = "<out>"
        rows = wl.parse_limit_csv(out.read_text())
    return code, report, rows


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_reference_ops_replay_without_difference(workload, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.PRECISION_ENV, raising=False)
    problems = []
    for entry in REFERENCE[workload]:
        for argv, ref in zip(entry["op"], entry["invocations"], strict=True):
            code, report, rows = _replay(argv, tmp_path)
            found = wl.check_invocation(argv, code, report, rows)
            if code != ref["code"]:
                found.append("exit %d, reference %d" % (code, ref["code"]))
            found += wl.compare(ref["report"], report, "report")
            if ref.get("rows") is not None:
                found += wl.compare_rows(ref["rows"], rows or [])
            problems += ["%s: %s" % (" ".join(argv), p) for p in found]
    assert problems == []
