"""Benchmark worker: runs one job against the colorpartitions source tree.

Usage (by run.py): ``python3 worker.py SRC_DIR``.  The worker imports the
package from SRC_DIR, prints ``ready`` and reads one JSON job line from stdin
(an empty line or end of input means exit).  It runs the job's operations
back to back and prints one JSON result line.  Timing covers the operations
only; output digests and cross-checks run after the clock stops (and after
tracing is removed), so they cost the measured run nothing.  The
calibration chunk of ``speed.py`` is timed before each operation and after
the last, so each time can be given at reference speed.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from speed import chunk_cost


def run_op(op: dict) -> tuple[str, int | None]:
    """Run one operation; returns (output text, exit code or None)."""
    from colorpartitions import cli, families, series
    from colorpartitions.coloring import IdentityParams

    kind = op["kind"]
    if kind == "cli":
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(op["argv"]))
        return stdout.getvalue(), code
    params = IdentityParams(op["M"], op["r"])
    if kind == "window":
        counts = families.rank_window_counts(params, op["n"])
    elif kind == "box" and "size" in op:
        counts = families.boxed_counts(params, *series.finitized_box(params, op["size"]))
    elif kind == "box":
        counts = families.boxed_counts(params, op["max_part"], op["max_length"], op["cap"])
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return " ".join(str(c) for c in counts) + "\n", None


def _ints(text: str) -> list[int]:
    return [int(token) for token in text.split()]


def cross_check(op: dict, output: str, code: int | None) -> list[str]:
    """Checks of one output by a second route; returns the problems found."""
    from colorpartitions import series
    from colorpartitions.coloring import IdentityParams

    kind = op["kind"]
    if kind == "cli":
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + _check_cli(op["argv"], output)
    params = IdentityParams(op["M"], op["r"])
    counts = _ints(output)
    if kind == "window":
        expected = list(series.bosonic_sum(params, op["n"]).coefficients)
        return [] if counts == expected else ["window counts differ from bosonic_sum"]
    if "size" not in op:
        return []  # no second route for an arbitrary box; the digest covers it
    lhs = series.finitized_lhs(params, op["size"])
    if lhs.degree > len(counts) - 1 or counts != lhs.padded(len(counts) - 1):
        return ["box counts differ from finitized_lhs"]
    return []


def _check_cli(argv: list[str], output: str) -> list[str]:
    from colorpartitions import series
    from colorpartitions.coloring import IdentityParams

    command = argv[0]
    if command == "verify":
        return [] if json.loads(output)["passed"] else ["verify report did not pass"]
    if command == "table":
        m, r, n = (int(a) for a in argv[1:4])
        expected = series.bosonic_sum(IdentityParams(m, r), n)[n]
        rows = len(output.splitlines())
        return [] if rows == expected else [f"{rows} table rows vs bosonic {expected}"]
    if command == "coeffs":
        form = argv[1]
        params = IdentityParams(int(argv[2]), int(argv[3]))
        order = int(argv[4])
        values = _ints(output)
        legs = {}
        if form != "bosonic":
            legs["bosonic"] = series.bosonic_sum(params, order)
        if form != "product" and params.has_product_form:
            legs["product"] = series.restricted_product(params, order)
        return [
            f"{form} differs from {name}"
            for name, other in legs.items()
            if values != list(other.coefficients)
        ]
    return []


def _cells(op: dict, output: str) -> int:
    if op["kind"] == "cli" and op["argv"][0] == "verify":
        return len(json.loads(output)["records"])
    return 0


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_job(job: dict) -> dict:
    ops = job["ops"]
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs: list = []
    calibration: list[float] = []
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.request = index
            calibration.append(chunk_cost())
            op_cpu, op_start = _cpu_seconds(), time.perf_counter()
            try:
                outcome = run_op(op)
            except Exception:  # a failed operation is counted, not fatal
                outcome = traceback.format_exc()
            outputs.append((outcome, time.perf_counter() - op_start, _cpu_seconds() - op_cpu))
    finally:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
    calibration.append(chunk_cost())

    results = []
    for index, (op, (outcome, op_wall, op_cpu)) in enumerate(zip(ops, outputs)):
        result = {
            "key": op["key"],
            "wall_s": op_wall,
            "cpu_s": op_cpu,
            "chunk_s": calibration[index : index + 2],
        }
        results.append(result)
        if isinstance(outcome, str):
            result["error"] = outcome.strip().splitlines()[-1]
            continue
        output, code = outcome
        try:
            problems = cross_check(op, output, code)
            cells = _cells(op, output)
        except Exception as error:  # a malformed output is a failed check
            problems, cells = [f"check raised {error!r}"], 0
        result.update(
            sha256=hashlib.sha256(output.encode()).hexdigest(),
            exit=code,
            problems=problems,
            cells=cells,
            coefficients=len(output.split()) if op["kind"] != "cli" else 0,
        )
    from colorpartitions import kernels

    engine = getattr(kernels, "active_engine", None)
    report = {
        "wall_s": sum(result["wall_s"] for result in results),
        "cpu_s": sum(result["cpu_s"] for result in results),
        "peak_rss_mb": peak_kb / 1024,
        "calibration": calibration,
        "engine": engine() if engine is not None else "n/a",
        "results": results,
    }
    if tracer is not None:
        report["trace"] = _trace_report(tracer)
    return report


def _trace_report(tracer) -> dict:
    from colorpartitions import series

    seen = tracer.seen()
    weights = [n for (name, n), _ in seen.items() if name == "rank_window_members"]
    p = series.partition_series(max(weights)) if weights else None
    scanned = sum(
        count * p[n] for (name, n), count in seen.items() if name == "rank_window_members"
    )
    hits, misses = tracer.cache_stats()
    counters = tracer.counters()
    return {
        "functions": tracer.functions(),
        "missing": tracer.missing,
        "ranked_partitions.hits": hits,
        "ranked_partitions.misses": misses,
        "rank_window_members.kept": counters["rank_window_members.kept"],
        "rank_window_members.scanned": scanned,
        "colored_members_up_to.distinct": sum(
            1 for name, _ in seen if name == "colored_members_up_to"
        ),
        "finitized_top_ok.passed": counters["finitized_top_ok.passed"],
        "kernel.weights": counters["kernel.weights"],
        "spans": tracer.spans(),
    }


def load_package(src: str) -> None:
    """Import colorpartitions from ``src``, refusing any other copy."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import colorpartitions
    import colorpartitions.cli  # noqa: F401  (ready means the CLI is importable)

    if not os.path.abspath(colorpartitions.__file__).startswith(src + os.sep):
        raise ImportError(f"colorpartitions imported from {colorpartitions.__file__}, not {src}")


def main(argv: list[str]) -> int:
    load_package(argv[0])
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    report = run_job(json.loads(line))
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
