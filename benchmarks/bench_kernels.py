"""Compare the Frobenius-pair DP counting kernel against the brute-force oracle.

Runs the same rank-window workloads through ``kernels`` and ``_pure`` and
prints a small table with per-call times and the speedup.  Exits 1 if the two
ever disagree.

Usage: python benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import statistics
import time

from colorpartitions import kernels
from colorpartitions._pure import count_rank_bounded_partitions as pure_counts

WORKLOADS = [
    # (label, max_part, max_length, rank_lo, rank_hi, cap)
    ("window M=7 r=1, n<=30", 30, 30, 1, 4, 30),
    ("window M=8 r=3, n<=40", 40, 40, -1, 3, 40),
    ("window M=9 r=4, n<=45", 45, 45, -2, 3, 45),
    ("box 24x18, M=5 r=2", 24, 18, 0, 1, 42),
]


def time_call(func, repeat):
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = func()
        samples.append(time.perf_counter() - started)
    return min(samples), statistics.median(samples), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timings per workload")
    args = parser.parse_args()

    header = f"{'workload':<24} {'pure':>10} {'dp':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, u, v, lo, hi, cap in WORKLOADS:
        pure_best, _, pure_result = time_call(
            lambda: pure_counts(u, v, lo, hi, cap), args.repeat
        )
        dp_best, _, dp_result = time_call(
            lambda: kernels.count_rank_bounded_partitions(u, v, lo, hi, cap),
            args.repeat,
        )
        if dp_result != pure_result:
            print(f"{label}: DP DISAGREES WITH THE ORACLE")
            return 1
        print(
            f"{label:<24} {pure_best * 1e3:>8.2f}ms {dp_best * 1e3:>8.2f}ms "
            f"{pure_best / dp_best:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
