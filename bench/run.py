"""Closed-loop benchmark of the ``pappuslab`` command line.

Usage, from the repository root:

    python3 bench/run.py --workload relations_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --record-reference

One client in one process calls ``pappuslab.cli.main(argv)`` with
generated argv lists and sends the next op only when the previous one
has returned.  With ``--trace 0`` it times ops for ``--seconds`` seconds
and reports the end-to-end metrics, with each op's time calibrated
against a frozen baseline copy of the program that a worker process
runs between ops; with ``--trace 1`` it runs a fixed
number of ops untraced, then twice with every layer's public functions
wrapped, and reports per-layer metrics (see README.md).  The last line
of stdout is the result as one JSON object; the line before it gives
the environment, sample counts and any problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
PRECISION_ENV = "PAPPUSLAB_PRECISION"

sys.path.insert(0, str(HERE))
from tracer import SpanTable, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    OpSource,
    check_invocation,
    compare,
    compare_rows,
    parse_limit_csv,
    parse_report,
)

# fresh interpreters per run, after a first one that may compile bytecode
SETUP_REPEATS = 7
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import pappuslab.cli\n"
    "pappuslab.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
BASELINE = HERE / "baseline"
# calibrations on each side of an op whose median is its slowdown: single
# calibrations are noisy, the host's drift is slow (README.md)
CALIBRATION_WINDOW = 20
# median seconds of a baseline import on the reference host (README.md)
SETUP_REF_S = 0.18
LAYERS = (
    "cli", "anosov_lab", "variety", "representation", "hilbert",
    "boxes", "modular", "projective", "scalars",
)
# functions and classes whose calls and self time are reported
TRACED = {
    "scalars": (
        "mat_mul", "mat_inverse", "vec_exact_reduce", "normalize_det_one", "eigen_real", "det_n",
    ),
    "projective": ("Point", "join", "meet", "proj_equal", "frame_map"),
    "boxes": (
        "OvermarkedBox", "tau1", "tau2", "transform_sigma", "theta_basis", "apply_matrix",
        "marked_equal",
    ),
    "modular": ("enumerate_words", "crossing_form", "in_subgroup_o"),
    "representation": ("evaluate", "matrix_B", "solve_delta_h", "extension_intertwiner"),
    "hilbert": ("ConvexQuad", "distortion_estimate"),
    "anosov_lab": ("constant_C", "limit_point", "loxodromy_scan"),
    "variety": ("jacobian_check_psi", "jacobian_check_phi"),
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def load_program():
    """Import ``pappuslab`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "pappuslab" / "cli.py").is_file():
        raise BenchError("no pappuslab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    os.environ.pop(PRECISION_ENV, None)  # run at the default precision
    import pappuslab.cli

    if Path(pappuslab.cli.__file__).resolve().parent != SRC / "pappuslab":
        raise BenchError("pappuslab imported from %s" % pappuslab.cli.__file__)
    return pappuslab.cli


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import pappuslab

    return {
        "python": platform.python_version(),
        "pappuslab": pappuslab.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "precision_bits": mpmath.mp.prec,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def measure_setup() -> tuple:
    """Seconds fresh interpreters take to import the CLI and build its
    parser: the program's, and in turn the frozen baseline's."""
    times = {SRC: [], BASELINE: []}
    for _ in range(SETUP_REPEATS + 1):  # the first pair may compile bytecode
        for path, found in times.items():
            env = dict(os.environ, PYTHONPATH=str(path))
            env.pop(PRECISION_ENV, None)
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            found.append(float(done.stdout))
    return times[SRC][1:], times[BASELINE][1:]


class Baseline:
    """The baseline worker process: runs the calibration ops on request."""

    def __init__(self, workdir: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "baseline_worker.py"), workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self, op) -> float:
        try:
            self.proc.stdin.write(json.dumps([list(a) for a in op]) + "\n")
            self.proc.stdin.flush()
            answer = self.proc.stdout.readline().strip()
        except OSError as exc:  # the worker has died
            raise BenchError("baseline worker: %s" % exc) from exc
        try:
            return float(answer)
        except ValueError:
            raise BenchError("baseline worker: %s" % (answer or "no answer")) from None

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs ops in-process; stdout is captured, ``--out`` files go to workdir."""

    def __init__(self, cli, workdir: str):
        self.cli = cli
        self.workdir = workdir
        self.serial = itertools.count()

    def run(self, op) -> list:
        records = []
        for argv in op:
            out, full = None, argv
            if argv[0] == "limit":
                out = os.path.join(self.workdir, "limit-%d.csv" % next(self.serial))
                full = argv + ["--out", out]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(full)
            except Exception:  # a crash is a failed op, not the end of the run
                code = "raised: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            records.append({"argv": argv, "code": code, "stdout": buf.getvalue(), "out": out})
        return records


def read_invocation(rec) -> tuple:
    """(report, csv rows) of one invocation; ``out`` paths are masked."""
    report = parse_report(rec["stdout"])
    rows = None
    if rec["out"]:
        if report.get("out") == rec["out"]:
            report["out"] = "<out>"
        with open(rec["out"], newline="") as handle:
            rows = parse_limit_csv(handle.read())
    return report, rows


def op_problems(records, reference=None) -> list:
    problems = []
    for k, rec in enumerate(records):
        label = " ".join(rec["argv"])
        if not isinstance(rec["code"], int):
            problems.append("%s: %s" % (label, rec["code"]))
            continue
        try:
            report, rows = read_invocation(rec)
        except (ValueError, OSError) as exc:
            problems.append("%s: unreadable output: %s" % (label, exc))
            continue
        found = check_invocation(rec["argv"], rec["code"], report, rows)
        if reference is not None:
            ref = reference[k]
            if ref["code"] != rec["code"]:
                found.append("exit %d, reference %d" % (rec["code"], ref["code"]))
            found += compare(ref["report"], report, "report")
            if ref.get("rows") is not None:
                found += compare_rows(ref["rows"], rows or [])
        problems += ["%s: %s" % (label, p) for p in found]
    return problems


def reference_ops(workload, source):
    return list(itertools.islice(source.stream("reference"), workload.reference_ops))


def run_reference(runner, workload, source) -> tuple:
    """Run the pinned reference ops (also the warm-up); returns (ops, failed, problems)."""
    try:
        recorded = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError("no usable reference in %s: %s" % (REFERENCE, exc)) from exc
    ops = reference_ops(workload, source)
    if [[list(a) for a in op] for op in ops] != [entry["op"] for entry in recorded]:
        raise BenchError("reference ops of %s differ from %s" % (workload.name, REFERENCE))
    failed, problems = check_ops(
        [runner.run(op) for op in ops], [entry["invocations"] for entry in recorded])
    return len(ops), failed, problems


def check_ops(records_per_op, references=None) -> tuple:
    """(failed ops, problems) of the ops' records, against references if given."""
    failed, problems = 0, []
    for k, records in enumerate(records_per_op):
        found = op_problems(records, references[k] if references else None)
        failed += bool(found)
        problems += found
    return failed, problems


def metric(value, unit, n=None):
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def timings(latencies) -> dict:
    """Throughput and median and 90th-percentile latency of a run's ops."""
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 \
        else latencies[0]
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def run_timed(cli, workload, seed, seconds, workdir) -> dict:
    setup, baseline_setup = measure_setup()
    runner = Runner(cli, workdir)
    source = OpSource(workload)
    ref_n, ref_failed, problems = run_reference(runner, workload, source)
    stream = source.stream(str(seed))
    latencies, done, cals = [], [], []
    baseline = Baseline(workdir)
    try:
        baseline.time(workload.calibration)  # warm-up
        cals.append(baseline.time(workload.calibration))
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            op = next(stream)
            begin = time.perf_counter()
            done.append(runner.run(op))
            latencies.append(time.perf_counter() - begin)
            cals.append(baseline.time(workload.calibration))
    finally:
        baseline.close()
    failed, found = check_ops(done)
    # an op's slowdown: the median of the calibrations around it (README.md)
    k = CALIBRATION_WINDOW
    slow = [
        statistics.median(cals[max(0, i - k):i + k + 2]) / workload.calibration_ref_s
        for i in range(len(latencies))
    ]
    calibrated = timings([x / s for x, s in zip(latencies, slow)])
    measured = timings(latencies)
    # each program import against the baseline import right after it
    setup_ratios = [p / b for p, b in zip(setup, baseline_setup)]
    measured["setup_s"] = statistics.median(setup)
    n = len(latencies)
    return {
        "attempted": ref_n + n,
        "failed": ref_failed + failed,
        "problems": problems + found,
        "samples": {
            "ops": n,
            "reference_ops": ref_n,
            "setup": len(setup),
            "calibrations": len(cals),
            "beyond_p90": sum(
                x / s * 1e3 > calibrated["latency_p90_ms"] for x, s in zip(latencies, slow)),
        },
        "host": {
            "slowdown": statistics.median(slow),
            "baseline_setup_s": statistics.median(baseline_setup),
            "calibration_s": cals,
            "latency_s": latencies,
            "measured": measured,
        },
        "metrics": {
            "throughput_ops_s": metric(calibrated["throughput_ops_s"], "ops/s", n),
            "latency_p50_ms": metric(calibrated["latency_p50_ms"], "ms", n),
            "latency_p90_ms": metric(calibrated["latency_p90_ms"], "ms", n),
            "setup_s": metric(statistics.median(setup_ratios) * SETUP_REF_S, "s", len(setup)),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        },
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _outputs(records_per_op, commands):
    """(report, rows) of every readable invocation of ``commands``; the
    unreadable ones are already counted as failed ops."""
    for records in records_per_op:
        for rec in records:
            if rec["argv"][0] in commands and isinstance(rec["code"], int):
                try:
                    yield read_invocation(rec)
                except (ValueError, OSError):
                    continue


def layer_metrics(table, records_per_op, overhead) -> dict:
    m = {}
    for layer, names in TRACED.items():
        for name in names:
            full = "%s.%s" % (layer, name)
            m[full + ".calls"] = metric(table.calls_of(full), "count")
            m[full + ".self_s"] = metric(table.self_of(full), "s")
    for layer in LAYERS:
        m[layer + ".self_s"] = metric(table.layer_self(layer), "s")
    scanned = sum(
        r.get("checks", {}).get("loxodromy_scanned", 0)
        for r, _ in _outputs(records_per_op, ("certify",))
    )
    depths = [int(row[-1]) for _, rows in _outputs(records_per_op, ("limit",)) for row in rows]
    transforms = sum(
        table.calls_of("boxes." + t) for t in ("tau1", "tau2", "transform_sigma", "transform_i")
    )
    calls, within = table.calls_of, table.calls_within
    ratios = {
        "boxes.apply_matrix.fail_ratio": _ratio(
            table.raised_of("boxes.apply_matrix"), calls("boxes.apply_matrix")),
        "boxes.OvermarkedBox.per_transform": _ratio(calls("boxes.OvermarkedBox"), transforms),
        "representation.matrix_B.per_evaluate": _ratio(
            calls("representation.matrix_B"), calls("representation.evaluate")),
        "scalars.mat_mul.per_scanned_word": _ratio(
            within("scalars.mat_mul", "anosov_lab.loxodromy_scan"), scanned),
        "representation.curve_h.per_solve": _ratio(
            within("representation.curve_h", "representation.solve_delta_h"),
            calls("representation.solve_delta_h")),
        "trace_overhead_ratio": overhead,
    }
    m.update((name, metric(value, "1")) for name, value in ratios.items())
    m["anosov_lab.limit_point.mean_depth"] = metric(_ratio(sum(depths), len(depths)), "count")
    return m


def run_traced(cli, workload, seed, workdir) -> dict:
    runner = Runner(cli, workdir)
    source = OpSource(workload)
    ref_n, ref_failed, problems = run_reference(runner, workload, source)
    ops = list(itertools.islice(source.stream(str(seed)), workload.trace_ops))

    def one_pass():
        t = time.perf_counter()
        records = [runner.run(op) for op in ops]
        return records, time.perf_counter() - t

    plain, plain_wall = one_pass()
    tracer = Tracer({layer: importlib.import_module("pappuslab." + layer) for layer in LAYERS})
    tracer.install()
    try:
        first, first_wall = one_pass()
        spans = tracer.reset()
        second, second_wall = one_pass()
        again = tracer.reset()
    finally:
        tracer.uninstall()
    table = SpanTable(spans, tracer.names)
    counts, counts_again = table.call_counts(), SpanTable(again, tracer.names).call_counts()
    if counts != counts_again:
        diff = sorted(k for k in counts if counts[k] != counts_again[k])
        raise BenchError("call counts differ between two traced passes: %s" % diff[:10])
    failed, found = check_ops(plain + first + second)
    table.save(str(OUT / ("spans-%s-seed%d.npz" % (workload.name, seed))))
    overhead = (first_wall + second_wall) / 2 / plain_wall
    return {
        "attempted": ref_n + 3 * len(ops),
        "failed": ref_failed + failed,
        "problems": problems + found,
        "samples": {
            "ops_per_pass": len(ops),
            "passes": 3,
            "reference_ops": ref_n,
            "spans_per_pass": len(spans),
        },
        "metrics": layer_metrics(table, first, overhead),
    }


def run_workload(name, seed, seconds, trace) -> int:
    cli = load_program()
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        if trace:
            result = run_traced(cli, workload, seed, workdir)
        else:
            result = run_timed(cli, workload, seed, seconds, workdir)
    detail = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "env": dict(environment(), seed=seed),
        "samples": result["samples"],
        "host": result.get("host"),
        "failed_ratio": result["failed"] / result["attempted"],
        "problems": result["problems"][:20],
        "metrics": result["metrics"],
    }
    print(json.dumps(detail))
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    attempted = failed = 0
    combined = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            raise BenchError("workload %s failed: %s" % (name, done.stderr.strip()[-2000:]))
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print("%s  attempted=%d failed=%d failed_ratio=%.4g" % (
            name, result["attempted"], result["failed"], detail["failed_ratio"]))
        for key, m in detail["metrics"].items():
            print("  %-44s %14.6g %-6s n=%s" % (key, m["value"], m["unit"], m.get("n", "-")))
            combined["%s.%s" % (name, key)] = {"value": m["value"], "unit": m["unit"]}
        for problem in detail["problems"]:
            print("  problem: " + problem)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def record_reference() -> int:
    """Rewrite reference.json from the current program; run only on a
    commit whose outputs have been checked."""
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    recorded = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        for name, workload in WORKLOADS.items():
            runner = Runner(cli, workdir)
            entries = []
            for op in reference_ops(workload, OpSource(workload)):
                records = runner.run(op)
                problems = op_problems(records)
                if problems:
                    raise BenchError("reference op fails its checks: %s" % problems)
                invocations = []
                for rec in records:
                    report, rows = read_invocation(rec)
                    invocations.append({"code": rec["code"], "report": report, "rows": rows})
                entries.append({"op": [list(a) for a in op], "invocations": invocations})
            recorded[name] = entries
    REFERENCE.write_text(json.dumps({"env": environment(), "workloads": recorded}, indent=1) + "\n")
    print("wrote %s" % REFERENCE)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("bench: error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
