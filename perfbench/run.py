"""Layered benchmark for colorpartitions.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-all, window-counts, cli-queries, or ``all`` for the
three in turn.  Each repetition of a workload runs in a fresh worker process
started from this process, one at a time (closed loop, one caller).
Repetitions go on until S seconds have passed, at least one.  Every output
is checked against ``reference.json`` (digests taken at the seed commit)
and, inside the worker, against a second route.  A mismatch counts as a
failed operation.

The host is shared, so the time of each operation shorter than a few seconds
is reported at reference speed: scaled by a calibration chunk timed right
before and after it (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` pairs each
untraced run with a traced run of the same operations and reports the
per-layer metrics, the ratios and the tracing overhead.  A summary goes to
stderr, the full record (environment, samples, spans) to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and the last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The benchmark exits 2, printing no result, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3  # bare launches before the first run; one more precedes each run
DEADLINE_S = 170  # a run must end within this, builds aside

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}
WORK_UNITS = {
    "verify-all": "grid cells",
    "window-counts": "count coefficients",
    "cli-queries": "queries",
}


class BenchError(RuntimeError):
    pass


class Worker:
    """One worker process; ``setup_s`` is launch to package imported."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Host speed at launch, taken while this process is the only busy one.
        self.chunk_s = speed.chunk_cost()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise BenchError("worker failed to import colorpartitions")

    def stop(self) -> None:
        self.proc.kill()
        self.proc.communicate()

    def run(self, job: dict | None) -> dict | None:
        payload = json.dumps(job) + "\n" if job is not None else "\n"
        try:
            out, _ = self.proc.communicate(
                payload, timeout=max(1.0, self.deadline - time.perf_counter())
            )
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the deadline") from None
        except BaseException:  # interrupted: leave no worker behind
            self.stop()
            raise
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.splitlines()[-1]) if job is not None else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def check_results(results: list[dict], reference: dict) -> list[str]:
    """One entry per failed operation: error, failed cross-check, or digest mismatch."""
    failures = []
    for result in results:
        key = result["key"]
        expected = reference.get(key)
        if "error" in result:
            failures.append(f"{key}: raised {result['error']}")
        elif result["problems"]:
            failures.append(f"{key}: {'; '.join(result['problems'])}")
        elif expected is None:
            failures.append(f"{key}: no reference output")
        elif (result["sha256"], result["exit"]) != (expected["sha256"], expected["exit"]):
            failures.append(f"{key}: output differs from the reference")
    return failures


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """Run one workload for ``seconds``; returns the full record."""
    reference = json.loads(REFERENCE.read_text())
    deadline = time.perf_counter() + DEADLINE_S
    ops = workloads.ops_for(name, seed, scale)
    launches = [bare_launch(deadline) for _ in range(SETUP_PROBES)]
    runs, traced_runs, failures = [], [], []
    attempted = 0
    started = time.perf_counter()
    while True:
        launches.append(bare_launch(deadline))
        worker = Worker(deadline)
        launches.append(worker)
        plain = worker.run({"ops": ops, "trace": False})
        runs.append(plain)
        attempted += len(ops)
        failures += check_results(plain["results"], reference)
        if trace:
            traced = Worker(deadline).run({"ops": ops, "trace": True})
            traced_runs.append(traced)
            attempted += len(ops)
            failures += check_results(traced["results"], reference)
            for a, b in zip(plain["results"], traced["results"]):
                if a.get("sha256") != b.get("sha256"):
                    failures.append(f"{a['key']}: traced output differs from untraced")
        if time.perf_counter() - started >= seconds:
            break
    wall = per_operation(runs, "wall_s")
    raw_wall = per_operation(runs, "wall_s", at_reference=False)
    work = workloads.work_units(name, runs[0]["results"])
    setups = [launch.setup_s for launch in launches]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "environment": environment(runs[0]["engine"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {
            "wall_s": wall,
            "cpu_s": per_operation(runs, "cpu_s"),
            "setup_s": statistics.median(
                launch.setup_s * speed.factor(launch.setup_s, launch.chunk_s)
                for launch in launches
            ),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
            "work_per_s": work / wall,
        },
        "raw": {
            "wall_s": raw_wall,
            "cpu_s": per_operation(runs, "cpu_s", at_reference=False),
            "setup_s": statistics.median(setups),
            "work_per_s": work / raw_wall,
        },
        "samples": {
            "run_wall_s": [run["wall_s"] for run in runs],
            "run_cpu_s": [run["cpu_s"] for run in runs],
            "setup_s": setups,
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
            "chunk_s": [cost for run in runs for cost in run["calibration"]],
        },
        "operations": [
            {
                "key": op["key"],
                "wall_s": [run["results"][i]["wall_s"] for run in runs],
                "cpu_s": [run["results"][i]["cpu_s"] for run in runs],
                "chunk_s": [run["results"][i]["chunk_s"] for run in runs],
            }
            for i, op in enumerate(ops)
        ],
    }
    if trace:
        record["metrics"] = layer_metrics(runs, traced_runs)
        record["spans"] = [run["trace"]["spans"] for run in traced_runs]
        record["missing_targets"] = traced_runs[0]["trace"]["missing"]
    else:
        record["metrics"] = {
            metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
            for metric, value in record["end_to_end"].items()
        }
    return record


def bare_launch(deadline: float) -> Worker:
    """Launch a worker that only imports the package, and let it exit."""
    probe = Worker(deadline)
    probe.run(None)
    return probe


def per_operation(runs: list[dict], field: str, at_reference: bool = True) -> float:
    """Sum over the operations of each one's median time across the repetitions.

    Every repetition performs the same operations in the same order, so this
    is the time of one run.  With ``at_reference`` each time is first taken
    to reference speed by the calibration chunks timed around it (short
    operations only; see ``speed.py``).
    """

    def time_of(result: dict) -> float:
        if not at_reference:
            return result[field]
        return result[field] * speed.factor(result["wall_s"], *result["chunk_s"])

    columns = zip(*([time_of(result) for result in run["results"]] for run in runs))
    return sum(statistics.median(times) for times in columns)


def layer_metrics(runs: list[dict], traced_runs: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced runs, times as measured."""
    per_run = []
    for plain, traced in zip(runs, traced_runs):
        info = traced["trace"]
        values = {}
        functions = info["functions"]
        for name in tracer.TARGET_NAMES:
            calls, self_s, total_s = functions[name]
            values[f"{name}.calls"] = (calls, "count")
            values[f"{name}.self_s"] = (self_s, "s")
            values[f"{name}.total_s"] = (total_s, "s")
        hits, misses = info["ranked_partitions.hits"], info["ranked_partitions.misses"]
        cmu_calls = functions["families.colored_members_up_to"][0]
        fto_calls = functions["verify.finitized_top_ok"][0]
        cell_s = sum(functions[name][2] for name in tracer.CELL_SPANS)
        ratios = {
            "families.ranked_partitions.hit_ratio": _ratio(hits, hits + misses),
            "families.rank_window_members.keep_ratio": _ratio(
                info["rank_window_members.kept"], info["rank_window_members.scanned"]
            ),
            "families.colored_members_up_to.repeat_ratio": _ratio(
                cmu_calls, info["colored_members_up_to.distinct"]
            ),
            "verify.finitized_top_ok.pass_ratio": _ratio(
                info["finitized_top_ok.passed"], fto_calls
            ),
            "verify.cell_overlap": _ratio(cell_s, traced["wall_s"]),
        }
        values.update({name: (value, "ratio") for name, value in ratios.items()})
        values["kernels.count_rank_bounded_partitions.weights"] = (
            info["kernel.weights"],
            "count",
        )
        values["trace.wall_s"] = (traced["wall_s"], "s")
        values["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        per_run.append(values)
    return {
        name: {
            "value": statistics.median(values[name][0] for values in per_run),
            "unit": unit,
        }
        for name, (_, unit) in per_run[0].items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def environment(engine: str) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "engine": engine,
    }


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
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
    return "unknown"


def summarize(record: dict) -> str:
    name = record["workload"]
    env = record["environment"]
    lines = [
        f"[{name}] seed={record['seed']} trace={int(record['trace'])} "
        f"sha={env['git_sha'][:12]} python={env['python']} nproc={env['nproc']} "
        f"cython={env['cython_importable']} engine={env['engine']}"
    ]
    if not record["trace"]:
        for metric, value in record["end_to_end"].items():
            raw = record["raw"].get(metric)
            lines.append(
                f"  {metric:<12} {value:12.6g} {END_TO_END_UNITS[metric]:<4}"
                + (f" (raw {raw:.6g})" if raw is not None else "")
            )
        lines.append(f"  {'work unit':<12} {WORK_UNITS[name]}")
        for sample, values in record["samples"].items():
            q1, median, q3 = quartiles(values)
            lines.append(
                f"  per {sample:<12} median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"
            )
    else:
        for metric, entry in record["metrics"].items():
            if entry["value"]:
                lines.append(f"  {metric:<56} {entry['value']:14.6g} {entry['unit']}")
    ratio = record["failed"] / record["attempted"]
    lines.append(
        f"  {'ops_failed_ratio':<12} {ratio:12.6g} ratio "
        f"({record['failed']} of {record['attempted']} ops)"
    )
    lines.extend(f"  FAILED {failure}" for failure in record["failures"][:20])
    return "\n".join(lines)


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (
        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def result_line(records: list[dict]) -> dict:
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{metric}": entry
            for record in records
            for metric, entry in record["metrics"].items()
        }
    failed = sum(record["failed"] for record in records)
    return {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "colorpartitions" / "__init__.py").is_file():
        print(f"error: no colorpartitions source tree under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = write_record(record)
            print(summarize(record), file=sys.stderr)
            print(f"  record: {path.relative_to(ROOT)}", file=sys.stderr)
            records.append(record)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
