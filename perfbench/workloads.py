"""The benchmark's workloads: which operations one worker run performs.

An operation is a JSON-ready dict with a ``kind`` and a ``key``; the key names
the operation in ``reference.json``.  Kinds:

- ``cli``: ``cli.main(argv)``; its output is what it writes to stdout.
- ``window``: ``families.rank_window_counts(IdentityParams(M, r), n)``.
- ``box``: ``families.boxed_counts(IdentityParams(M, r), max_part, max_length,
  cap)``, or with ``size`` the uncapped box ``series.finitized_box`` gives.

The seed picks the order and, for ``cli-queries``, the sampled queries; every
repetition within one benchmark run performs the same operations in the same
order, so their times can be compared position by position.  Expensive
queries are grouped in strata of near-equal cost and the seed draws one query
per stratum, so the work hardly depends on the seed while the sample still
does.  ``scale="tiny"`` swaps
every workload for a small one of the same shape (used by the tests).

This module does not import ``colorpartitions``; run.py uses it too.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-all", "window-counts", "cli-queries")

# --- verify-all -----------------------------------------------------------

VERIFY_ALL = ("verify", "all", "-f", "json")
VERIFY_TINY = (
    ("verify", "counts", "--M", "5", "--n-max", "10", "-f", "json"),
    ("verify", "finitized", "--k", "2", "--N-max", "4", "-f", "json"),
)

# --- window-counts --------------------------------------------------------

WINDOW_WEIGHT = 45
ODD_BOX_SIZE = 20
EVEN_BOX_SIZE = 9  # even boxes grow fast: N = 16 runs for minutes
HALVES = (2, 3, 4, 5)

# benchmarks/bench_kernels.py's four kernel inputs, as (M, r) and sizes.
KERNEL_WINDOWS = ((7, 1, 30), (8, 3, 40), (9, 4, 45))
KERNEL_BOX = (5, 2, 24, 18, 42)  # M, r, max_part, max_length, cap


def window_op(modulus: int, residue: int, weight: int) -> dict:
    return {
        "kind": "window",
        "key": f"window M={modulus} r={residue} n<={weight}",
        "M": modulus,
        "r": residue,
        "n": weight,
    }


def box_op(modulus: int, residue: int, max_part: int, max_length: int, cap: int) -> dict:
    return {
        "kind": "box",
        "key": f"box M={modulus} r={residue} {max_part}x{max_length} cap={cap}",
        "M": modulus,
        "r": residue,
        "max_part": max_part,
        "max_length": max_length,
        "cap": cap,
    }


def finitized_box_op(modulus: int, residue: int, size: int) -> dict:
    """The box ``series.finitized_box`` gives at ``size``, uncapped."""
    return {
        "kind": "box",
        "key": f"box M={modulus} r={residue} N={size}",
        "M": modulus,
        "r": residue,
        "size": size,
    }


def window_count_ops(scale: str = "full") -> list[dict]:
    if scale == "tiny":
        return [
            window_op(5, 1, 12),
            window_op(6, 3, 12),
            finitized_box_op(5, 2, 6),
            finitized_box_op(6, 1, 4),
        ]
    ops = [
        window_op(m, r, WINDOW_WEIGHT) for m in range(5, 11) for r in range(1, m // 2 + 1)
    ]
    for k in HALVES:
        for r in range(1, k + 1):
            ops.append(finitized_box_op(2 * k + 1, r, ODD_BOX_SIZE))
            ops.append(finitized_box_op(2 * k, r, EVEN_BOX_SIZE))
    ops.extend(window_op(m, r, n) for m, r, n in KERNEL_WINDOWS)
    ops.append(box_op(*KERNEL_BOX))
    return ops


# --- cli-queries ----------------------------------------------------------


def cli_op(*argv: str) -> dict:
    return {"kind": "cli", "key": "cli " + " ".join(argv), "argv": list(argv)}


def _tables(weight: int, pairs) -> list[dict]:
    return [cli_op("table", str(m), str(r), str(weight)) for m, r in pairs]


def _coeffs(form: str, triples) -> list[dict]:
    return [cli_op("coeffs", form, str(m), str(r), str(n)) for m, r, n in triples]


LIGHT_TABLES = ((5, 1), (5, 2), (6, 1), (7, 1), (8, 1))
HEAVY_TABLES = ((9, 4), (10, 4), (10, 5), (11, 2))
SERIES_ORDERS = (160, 230, 300)
# Product and theta-quotient queries use 2r < M, where the product form holds.
PRODUCT_PAIRS = ((5, 1), (7, 2), (8, 3), (9, 4), (11, 3), (12, 5))
ANGLE_PARTITIONS = (
    "7,5,5,5,4,4,2",
    "9,9,7,4,4,3,1,1",
    "12,8,8,6,5,3,2,2,1",
    "15,11,10,6,6,2",
    "10,10,10,10,9,1",
    "20,5,4,4,3,3,2,1,1,1",
)

# One query per stratum per run.  Within a fermionic stratum the fastest
# times on a 2-core x86-64 VM differ by at most 5%, except k=4 (10%).
QUERY_STRATA = (
    ("table n=38 light", _tables(38, LIGHT_TABLES)),
    ("table n=38 heavy", _tables(38, HEAVY_TABLES)),
    ("table n=40 light", _tables(40, LIGHT_TABLES)),
    ("table n=40 heavy", _tables(40, HEAVY_TABLES)),
    (
        "fermionic k=6 N=170",
        _coeffs("fermionic", ((12, 4, 170), (12, 5, 170), (13, 3, 170), (13, 4, 170))),
    ),
    (
        "fermionic k=5 N=220",
        _coeffs("fermionic", ((10, 4, 220), (10, 5, 220), (11, 3, 220), (11, 5, 220))),
    ),
    ("fermionic k=4 N=300", _coeffs("fermionic", ((8, 4, 300), (9, 2, 300)))),
    (
        "product",
        _coeffs("product", [(m, r, n) for m, r in PRODUCT_PAIRS for n in SERIES_ORDERS]),
    ),
    (
        "bosonic",
        _coeffs("bosonic", [(m, r, n) for m, r in PRODUCT_PAIRS for n in SERIES_ORDERS]),
    ),
    ("angles", [cli_op("angles", parts) for parts in ANGLE_PARTITIONS]),
)

TINY_QUERIES = (
    cli_op("table", "7", "1", "10"),
    cli_op("table", "8", "3", "12"),
    cli_op("coeffs", "fermionic", "5", "2", "30"),
    cli_op("coeffs", "product", "7", "1", "30"),
    cli_op("coeffs", "bosonic", "8", "3", "30"),
    cli_op("angles", "7,5,5,5,4,4,2"),
)


def query_pool(scale: str = "full") -> list[dict]:
    if scale == "tiny":
        return list(TINY_QUERIES)
    return [op for _, ops in QUERY_STRATA for op in ops]


# --- dispatch -------------------------------------------------------------


def ops_for(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The operations one run of ``workload`` performs under ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        if scale == "tiny":
            return [cli_op(*argv) for argv in VERIFY_TINY]
        return [cli_op(*VERIFY_ALL)]
    if workload == "window-counts":
        ops = window_count_ops(scale)
    elif workload == "cli-queries":
        if scale == "tiny":
            ops = list(TINY_QUERIES)
        else:
            ops = [rng.choice(choices) for _, choices in QUERY_STRATA]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def all_ops(scale: str = "full") -> list[dict]:
    """Every operation any run can draw, for capturing reference outputs."""
    ops = [cli_op(*VERIFY_ALL)] if scale == "full" else [cli_op(*a) for a in VERIFY_TINY]
    return ops + window_count_ops(scale) + query_pool(scale)


def work_units(workload: str, results: list[dict]) -> int:
    """Work a run completed: grid cells, count coefficients, or queries."""
    if workload == "verify-all":
        return sum(result.get("cells", 0) for result in results)
    if workload == "window-counts":
        return sum(result.get("coefficients", 0) for result in results)
    return len(results)
