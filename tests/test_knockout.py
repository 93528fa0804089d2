"""Route knockout: which records of one small ``verify_all`` each route feeds.

Each row breaks one route, a series or count by a single coefficient or a
membership predicate or the decode by one case, and lists, per scope, how
many records must then fail.  The mutant replaces the row's module attribute
(``series.<name>``, ``families.<name>``, ``kernels.<name>`` or
``coloring.<name>``) at every module of the package that binds it, so every
caller sees it.  A change that drops a route from a record, or adds one,
changes this table.
"""

import sys
from collections import Counter

import pytest

from colorpartitions import coloring, families, kernels, series
from colorpartitions.series import TruncatedSeries
from colorpartitions.verify import verify_all

GRID = dict(n_max=20, gordon_n_max=20, odd_size_max=8, even_size_max=6)
SIZE_OK, GAP_OK, DECODE_PART = coloring._size_ok, coloring._gap_ok, coloring._decode_part
COLOR_MAP, BOX_LAW = coloring.color_map, coloring.check_box_condition


def bumped(coefficients, degree):
    """The coefficients, zero-extended to ``degree`` as needed, plus 1 there."""
    out = list(coefficients) + [0] * (degree + 1 - len(coefficients))
    out[degree] += 1
    return out


def series_plus_one(name, degree):
    real = getattr(series, name)
    return lambda *args: TruncatedSeries(bumped(real(*args).coefficients, degree))


def binomial_plus_one(a, b, degree):
    # the table read of [a, b], +1 at limb ``degree`` of the read's width
    real = series._gaussian_binomial

    def mutant(rows, upper, lower, bits):
        packed, bound = real(rows, upper, lower, bits)
        if (upper, lower) == (a, b):
            return packed + (1 << (bits * degree)), bound + 1
        return packed, bound

    return mutant


def builder_plus_one(name, degree):
    # a packed finitized side's total, +1 at limb ``degree`` of its read
    # width, and its bound plus 1
    real = getattr(series, name)

    def mutant(params, size, tables, bits):
        total, bound = real(params, size, tables, bits)
        return total + (1 << (bits * degree)), bound + 1

    return mutant


def counts_plus_one(module, name, degree):
    real = getattr(module, name)
    return lambda *args, **kwargs: bumped(real(*args, **kwargs), degree)


def each_plus_one(module, name, degree):
    # every count list a sweep yields, +1 at ``degree``
    real = getattr(module, name)
    return lambda *args: [bumped(counts, degree) for counts in real(*args)]


def pair_sweep_plus_one(degree):
    # q^degree added to the pair sweep's total and to each kept pair's
    # series, when its top weight reaches that far
    real = kernels._pair_sweep

    def mutant(*args, **kwargs):
        total, top, bits, pairs = real(*args, **kwargs)
        if top >= degree:
            step = 1 << (bits * degree)
            total += step
            if pairs is not None:
                pairs = [[(h, chains + step) for h, chains in row] for row in pairs]
        return total, top, bits, pairs

    return mutant


def empty_head_plus_one(degree):
    # the packed head DP's () series, +1 at ``degree`` when it reaches that far
    real = families._colored_head_counts

    def mutant(params, max_weight, max_size):
        bits, packed = real(params, max_weight, max_size)
        if max_weight >= degree:
            packed[()] += 1 << (bits * degree)
        return bits, packed

    return mutant


def partition_number_plus_one(degree):
    # p(degree) one too high, wherever the pentagonal table is read
    real = kernels._partition_number
    return lambda n: real(n) + 1 if n == degree else real(n)


def size_ok_admits_size_one(size, rank):
    # (i) admits every part of size 1, whatever rank it encodes
    return size == 1 or SIZE_OK(size, rank)


def gap_ok_two_short_across_colors(size_a, color_a, size_b, color_b, params):
    # (ii) asks 2 less of parts of different colors whose sizes differ by an
    # even number: a gap 2 wider keeps the gap's parity and so its demand
    if color_a != color_b and (size_a - size_b) % 2 == 0:
        size_a += 2
    return GAP_OK(size_a, color_a, size_b, color_b, params)


def gap_ok_admits_one_between_color_ones(size_a, color_a, size_b, color_b, params):
    # (ii) admits a gap of 1 between two color-1 parts
    if color_a == color_b == 1 and size_a - size_b == 1:
        return True
    return GAP_OK(size_a, color_a, size_b, color_b, params)


def rank_ok_admits_every_rank(rank, params):
    # (iii) admits every rank a color encodes, so at an even modulus the top
    # color may sit on a part sharing the residue's parity
    return True


def decode_wide_from_size_seven(size, color, residue):
    # the decode gives one more column to every part of size 7 or more
    width, height = DECODE_PART(size, color, residue)
    return (width + 1, height - 1) if size >= 7 else (width, height)


def color_map_bumps_size_seven(parts, params):
    # the encoding gives one more color to every part of size 7 or more
    return tuple((size, color + (size >= 7)) for size, color in COLOR_MAP(parts, params))


def box_law_admits_one_more_row(colored, params, max_width, max_height):
    # the box law admits a member one row taller than the box
    return BOX_LAW(colored, params, max_width, max_height + 1)


KNOCKOUTS = [
    ("restricted_product", series, series_plus_one("restricted_product", 12),
     {"product_counts": 15, "bijection": 15, "gordon": 5}),
    ("bosonic_sum", series, series_plus_one("bosonic_sum", 12),
     {"bijection": 18, "product_counts": 3}),
    # The theta quotient reads its values from the pentagonal table; the pair
    # sweep reads only p(top)'s bit length, which p(12) + 1 leaves at 7.
    ("_partition_number", kernels, partition_number_plus_one(12),
     {"bijection": 18, "product_counts": 3}),
    ("fermionic_multisum", series, series_plus_one("fermionic_multisum", 12),
     {"bijection": 18}),
    ("_finitized_lhs", series, builder_plus_one("_finitized_lhs", 12), {"finitized": 18}),
    ("_finitized_rhs", series, builder_plus_one("_finitized_rhs", 12), {"finitized": 18}),
    ("_gaussian_binomial", series, binomial_plus_one(9, 3, 4), {"finitized": 4}),
    ("frequency_counts", families, counts_plus_one(families, "frequency_counts", 12),
     {"gordon": 5}),
    ("_colored_head_counts", families, empty_head_plus_one(12),
     {"bijection": 18, "finitized": 18}),
    ("_boxed_counts", families, each_plus_one(families, "_boxed_counts", 12), {"finitized": 18}),
    # The pair sweep feeds the count records, through the counting kernel,
    # and the finitized box count, through the box sweep's kept pairs.
    ("_pair_sweep", kernels, pair_sweep_plus_one(12), {"product_counts": 18, "finitized": 18}),
    ("_size_ok", coloring, size_ok_admits_size_one, {"bijection": 14, "finitized": 14}),
    ("_gap_ok", coloring, gap_ok_two_short_across_colors, {"bijection": 14, "finitized": 14}),
    # The running head sums start each cut two or three below the head, so
    # they never ask _gap_ok about a tail one smaller, and no record reads
    # this case; a local certificate of the bijection at every weight is
    # what would fill this row.
    ("_gap_ok", coloring, gap_ok_admits_one_between_color_ones, {}),
    # (iii) binds at an even modulus only; odd cells' top color stays in it.
    ("_rank_ok", coloring, rank_ok_admits_every_rank, {"bijection": 9, "finitized": 9}),
    # With one decode formula the rank a color encodes reads it too, so the
    # top-part count of the finitized records sees it as well.
    ("_decode_part", coloring, decode_wide_from_size_seven, {"bijection": 18, "finitized": 18}),
    ("color_map", coloring, color_map_bumps_size_seven, {"bijection": 18}),
    # The box law is read by the top-part count of the finitized records
    # alone.  At M = 4 the window's one rank w - h = 2 - r and the box
    # W = N + 2 - r, H = N give h <= H whenever w <= W, so those two cells
    # never see the extra row.
    ("check_box_condition", coloring, box_law_admits_one_more_row, {"finitized": 16}),
]


def failing_scopes():
    report = verify_all(**GRID)
    return dict(Counter(record.scope for record in report.records if not record.ok))


def test_clean_grid_passes():
    assert failing_scopes() == {}


@pytest.mark.parametrize(
    "name, module, mutant, expected",
    KNOCKOUTS,
    # a private packed core's row goes by its public route's name
    ids=[
        mutant.__name__ if module is coloring else name.lstrip("_")
        for name, module, mutant, _ in KNOCKOUTS
    ],
)
def test_knockout_fails_exactly_its_records(monkeypatch, name, module, mutant, expected):
    real = getattr(module, name)
    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("colorpartitions") and getattr(bound, name, None) is real:
            monkeypatch.setattr(bound, name, mutant)
    assert failing_scopes() == expected
