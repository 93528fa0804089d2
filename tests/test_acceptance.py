"""Acceptance gate: one test per release criterion, with stated budgets.

Each test prints one ``[acceptance] name: PASS/FAIL`` line (visible with -s,
and mirrored by the per-test PASSED/FAILED line under -v).  Budgets are wall
clock on a single worker; all numeric claims are exact integer equalities.
"""

import pathlib
import time

from colorpartitions import (
    IdentityParams,
    alt_color_map,
    angle_lengths,
    angles,
    cli,
    color_map,
    colored_members,
    gap2_members,
    rank_window_members,
    successive_ranks,
)
from colorpartitions.families import gordon_members, product_parts_members
from colorpartitions.partitions import partitions_of
from colorpartitions.series import (
    bosonic_sum,
    fermionic_multisum,
    first_difference,
    restricted_product,
)
from colorpartitions.verify import (
    verify_finitized_grid,
    verify_gordon_grid,
    verify_identity_grid,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

GRID = [
    IdentityParams(m, r) for m in range(4, 10) for r in range(1, m // 2 + 1)
]


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def run_table(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def test_golden_table_modulus_7(capsys):
    started = time.perf_counter()
    code, out = run_table("table", "7", "1", "10")
    elapsed = time.perf_counter() - started
    golden = (GOLDEN / "table_7_1_10.txt").read_text()
    report(
        "table M=7 r=1 n=10 byte-exact, 8 rows",
        code == 0 and out == golden and len(out.splitlines()) == 8 and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_golden_table_modulus_8(capsys):
    started = time.perf_counter()
    code, out = run_table("table", "8", "3", "10")
    elapsed = time.perf_counter() - started
    golden = (GOLDEN / "table_8_3_10.txt").read_text()
    ok = (
        code == 0
        and out == golden
        and len(out.splitlines()) == 20
        and "(6,2,1,1) [2,0] (9_2,1_1)" in out.splitlines()
    )
    report("table M=8 r=3 n=10 byte-exact, 20 rows", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_angle_breakdown_example():
    p = (7, 5, 5, 5, 4, 4, 2)
    lengths = angle_lengths(angles(p))
    ranks = successive_ranks(p)
    report(
        "angle breakdown of (7,5,5,5,4,4,2)",
        lengths == (13, 9, 6, 4) and ranks == (0, -2, -1, -1),
        f"lengths={lengths} ranks={ranks}",
    )


def test_identity_grid_counts_and_bijection():
    # every (M, r) cell, n <= 30: window members = colored members = series
    # coefficients (product, theta quotient, multisum), with elementwise
    # encode/decode round trip.  At 2r = M the product is not a form of the
    # identity (it first over-counts at n = r, pinned below), so those cells
    # check the two series forms that do hold.
    started = time.perf_counter()
    grid = verify_identity_grid(n_max=30)
    elapsed = time.perf_counter() - started
    boundary_ok = True
    for params in GRID:
        if not params.has_product_form:
            product = restricted_product(params, 12)
            theta = bosonic_sum(params, 12)
            split = first_difference(product.coefficients, theta.coefficients)
            boundary_ok = boundary_ok and split == params.residue
    failure = grid.first_failure
    report(
        "identity grid 4<=M<=9, n<=30: counts, series, round trip",
        grid.passed and boundary_ok and elapsed < 300.0,
        f"{len(grid.records)} cells, {grid.total_checked} comparisons, "
        f"{elapsed:.1f}s" + (f"; first failure {failure}" if failure else ""),
    )


def test_bounded_repetition_counts():
    started = time.perf_counter()
    grid = verify_gordon_grid(n_max=25)
    elapsed = time.perf_counter() - started
    # the modulus-7, residue-3 family: at most two 1s, no triple repeats
    sample = gordon_members(3, 3, 10)
    product = restricted_product(IdentityParams(7, 3), 10)
    report(
        "bounded-repetition families vs product coefficients, n<=25",
        grid.passed and len(sample) == product[10] and elapsed < 60.0,
        f"{grid.total_checked} comparisons, {elapsed:.1f}s",
    )


def test_finitized_polynomial_identities():
    started = time.perf_counter()
    grid = verify_finitized_grid()  # odd k=2..4 N<=12, even k=2..4 N<=10
    elapsed = time.perf_counter() - started
    failure = grid.first_failure
    report(
        "finitized identities: polynomial equality + two enumerations",
        grid.passed and elapsed < 120.0,
        f"{len(grid.records)} cells, {grid.total_checked} comparisons, "
        f"{elapsed:.1f}s" + (f"; first failure {failure}" if failure else ""),
    )


def test_degenerate_modulus_3():
    params = IdentityParams(3, 1)
    order = 20
    ok = restricted_product(params, order).coefficients == (1,) + (0,) * order
    ok = ok and bosonic_sum(params, order).coefficients == (1,) + (0,) * order
    ok = ok and fermionic_multisum(params, order).coefficients == (1,) + (0,) * order
    ok = ok and rank_window_members(params, 0) == [()]
    ok = ok and colored_members(params, 0) == [()]
    ok = ok and product_parts_members(params, 0) == [()]
    for n in range(1, 16):
        ok = ok and rank_window_members(params, n) == []
        ok = ok and colored_members(params, n) == []
        ok = ok and product_parts_members(params, n) == []
    report("degenerate M=3 r=1: constant series, empty families", ok)


def test_angle_rank_laws_for_all_small_partitions():
    # four per-partition laws plus two narrow-window count equalities, n <= 30
    checked = 0
    laws_ok = True
    narrow = [0] * 31  # ranks within [0, 1]
    shifted = [0] * 31  # ranks within [1, 2]
    for n in range(31):
        for p in partitions_of(n):
            ranks = successive_ranks(p)
            lengths = angle_lengths(angles(p))
            checked += 1
            for length, rank in zip(lengths, ranks):
                laws_ok = laws_ok and length > abs(rank)  # hook beats its rank
                laws_ok = laws_ok and (length - rank - 1) % 2 == 0  # parity law
            for i in range(len(lengths) - 1):
                gap = lengths[i] - lengths[i + 1]
                laws_ok = laws_ok and gap >= 2 + abs(ranks[i] - ranks[i + 1])
                laws_ok = laws_ok and gap >= 2  # hook lengths are gap-2
            if all(0 <= r <= 1 for r in ranks):
                narrow[n] += 1
            if all(1 <= r <= 2 for r in ranks):
                shifted[n] += 1
    counts_ok = all(narrow[n] == len(gap2_members(n)) for n in range(31))
    counts_ok = counts_ok and all(
        shifted[n] == len(gap2_members(n, min_part=2)) for n in range(31)
    )
    report(
        "angle laws and narrow-window counts for every partition, n<=30",
        laws_ok and counts_ok,
        f"{checked} partitions",
    )


def test_alt_coloring_injectivity():
    # alt_color_map keeps the angle lengths and folds each successive rank v
    # to |v - (k-r)|, k = floor(M/2): it loses the side of the pivot k-r a
    # rank sits on, and nothing else.  Over the grid, n <= 30:
    #  1. two members share an image iff they have equal angle lengths and,
    #     position by position, equal ranks or ranks mirrored about the pivot;
    #  2. a cell collides iff its window reaches at least one step past the
    #     pivot on both sides (pivot - min_rank = k-2, max_rank - pivot =
    #     M-k-2), so the map is injective exactly on the cells with M <= 5;
    #  3. the first collision is M=6 r=1 n=4, (4) and (3,1) -> ((4,1),);
    #  4. color_map tells the members of every fibre apart.
    sign_only = True
    separated = True
    colliding = set()
    reaches_both_sides = set()
    lost = 0  # members minus distinct images
    first = None
    for params in GRID:
        pivot = params.half_modulus - params.residue
        if min(pivot - params.min_rank, params.max_rank - pivot) >= 1:
            reaches_both_sides.add(params)
        for n in range(31):
            fibres = {}
            mirror_classes = {}
            for p in rank_window_members(params, n):
                fibres.setdefault(alt_color_map(p, params), []).append(p)
                folded = tuple(min(v, 2 * pivot - v) for v in successive_ranks(p))
                mirror_classes.setdefault((angle_lengths(angles(p)), folded), []).append(p)
            sign_only = sign_only and sorted(fibres.values()) == sorted(
                mirror_classes.values()
            )
            shared = [(image, fibre) for image, fibre in fibres.items() if len(fibre) > 1]
            for _image, fibre in shared:
                lost += len(fibre) - 1
                separated = separated and len(
                    {color_map(p, params) for p in fibre}
                ) == len(fibre)
            if shared:
                colliding.add(params)
                if first is None:
                    first = (params, n, shared)
    checks = {
        "fold loses more than the sign": sign_only,
        "colliding cells differ from M>=6 and the window geometry": (
            colliding == reaches_both_sides == {p for p in GRID if p.modulus >= 6}
        ),
        "first collision moved": (
            first == (IdentityParams(6, 1), 4, [(((4, 1),), [(4,), (3, 1)])])
        ),
        "color_map merges a fibre": separated,
    }
    failed = [name for name, ok in checks.items() if not ok]
    detail = f"{len(colliding)} of {len(GRID)} cells collide, {lost} images short"
    if first is not None:
        params, n, [(image, fibre), *_] = first
        detail += (
            f"; first: M={params.modulus} r={params.residue} n={n}, "
            f"{' and '.join(map(str, fibre))} both map to {image}"
        )
    if failed:
        detail += "; " + ", ".join(failed)
    report(
        "rank-folding coloring loses only the sign about its pivot, injective iff M<=5",
        not failed,
        detail,
    )
