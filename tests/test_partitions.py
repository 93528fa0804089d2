"""Partition mechanics against independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: conjugation
is recomputed from a 0/1 cell grid, partition counts from the pentagonal
recurrence, and rank/angle facts from their definitions.
"""

import pytest
from hypothesis import example, given, strategies as st

from colorpartitions import (
    IdentityParams,
    angle_lengths,
    angles,
    as_partition,
    conjugate,
    durfee_size,
    format_partition,
    from_angles,
    parse_partition,
    partitions_of,
    successive_ranks,
    weight,
)
from colorpartitions import families, kernels, render, series, verify
from colorpartitions.partitions import _extend_rows, _rows_from_pairs


def grid_conjugate(parts):
    """Transpose the Ferrers diagram cell by cell."""
    if not parts:
        return ()
    grid = [[1] * p for p in parts]
    out = []
    for col in range(parts[0]):
        out.append(sum(1 for row in grid if col < len(row)))
    return tuple(out)


def pentagonal_counts(n_max):
    """p(0..n_max) via Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


PARTITIONS = st.lists(st.integers(min_value=1, max_value=40), max_size=12).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


# Worked example used throughout: a 32-cell partition with a 4x4 Durfee
# square.  Every number below was recomputed by hand from the diagram.
EXAMPLE = (7, 5, 5, 5, 4, 4, 2)
EXAMPLE_CONJUGATE = (7, 7, 6, 6, 4, 1, 1)
EXAMPLE_RANKS = (0, -2, -1, -1)
EXAMPLE_ANGLE_LENGTHS = (13, 9, 6, 4)


def test_example_conjugate():
    assert conjugate(EXAMPLE) == EXAMPLE_CONJUGATE
    assert grid_conjugate(EXAMPLE) == EXAMPLE_CONJUGATE


def test_example_durfee():
    assert durfee_size(EXAMPLE) == 4


def test_example_ranks():
    assert successive_ranks(EXAMPLE) == EXAMPLE_RANKS


def test_example_angle_lengths():
    assert angle_lengths(angles(EXAMPLE)) == EXAMPLE_ANGLE_LENGTHS


def test_example_angles_widths_heights():
    decomposition = angles(EXAMPLE)
    assert tuple(x for x, _ in decomposition) == (7, 4, 3, 2)
    assert tuple(y for _, y in decomposition) == (7, 6, 4, 3)


def test_as_partition_sorts_and_validates():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((0, 1))
    with pytest.raises(ValueError):
        as_partition((2, -1))
    with pytest.raises(ValueError):
        as_partition((2.5, 1))
    with pytest.raises(ValueError):
        as_partition((True, 1))
    # each part is checked before the sort compares it with another
    for parts in ([None, 1], ["a", 1], (1, "a", 2)):
        with pytest.raises(ValueError):
            as_partition(parts)


def test_weight():
    assert weight(()) == 0
    assert weight(EXAMPLE) == 32


def test_conjugate_small_cases():
    assert conjugate(()) == ()
    assert conjugate((1,)) == (1,)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((3, 2)) == (2, 2, 1)


def test_partitions_of_counts_match_pentagonal_recurrence():
    expected = pentagonal_counts(25)
    for n in range(26):
        assert sum(1 for _ in partitions_of(n)) == expected[n]


def test_partitions_of_max_part():
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(0)) == [()]


def test_partitions_of_rejects_non_int_weight():
    # a bool would otherwise yield (True,) as a partition of 1
    for n in (True, 2.0, "3"):
        with pytest.raises(ValueError, match="n must be an int"):
            list(partitions_of(n))
    # a bool cap would yield (True, True, True), a float one fail mid-list
    for cap in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="max_part must be an int"):
            list(partitions_of(3, cap))


def test_partitions_of_emits_reverse_lexicographic():
    for n in (5, 8):
        emitted = list(partitions_of(n))
        assert emitted == sorted(emitted, reverse=True)


def test_partitions_of_matches_capped_oracle():
    def oracle(n, cap):
        if n == 0:
            return [()]
        return [
            (part,) + rest
            for part in range(min(cap, n), 0, -1)
            for rest in oracle(n - part, part)
        ]

    for n in range(16):
        for cap in (None, -1, *range(n + 2)):
            expected = oracle(n, n if cap is None else cap)
            assert list(partitions_of(n, max_part=cap)) == expected


def test_format_and_parse():
    assert format_partition((7, 5, 5, 5, 4, 4, 2)) == "(7,5,5,5,4,4,2)"
    assert format_partition(()) == "()"
    assert parse_partition("(7,5,5,5,4,4,2)") == EXAMPLE
    assert parse_partition("7,5,5,5,4,4,2") == EXAMPLE
    assert parse_partition("()") == ()
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("(3,5)")
    with pytest.raises(ValueError):
        parse_partition("(a,b)")


@given(PARTITIONS)
def test_conjugate_matches_grid_oracle(parts):
    assert conjugate(parts) == grid_conjugate(parts)


@given(PARTITIONS)
def test_conjugate_involution(parts):
    assert conjugate(conjugate(parts)) == parts


@given(PARTITIONS)
def test_durfee_size_definition(parts):
    d = durfee_size(parts)
    assert all(parts[i] >= i + 1 for i in range(d))
    assert d == len(parts) or parts[d] <= d


@given(PARTITIONS)
def test_angles_round_trip(parts):
    assert from_angles(angles(parts)) == parts


@given(PARTITIONS)
def test_angle_lengths_sum_to_weight(parts):
    assert sum(angle_lengths(angles(parts))) == weight(parts)


@given(PARTITIONS)
def test_format_parse_round_trip(parts):
    assert parse_partition(format_partition(parts)) == parts


# Frobenius pair chains: strictly decreasing positive widths and heights.
CHAINS = st.integers(min_value=1, max_value=8).flatmap(
    lambda depth: st.tuples(
        *[st.sets(st.integers(min_value=1, max_value=20), min_size=depth, max_size=depth)] * 2
    ).map(lambda sides: tuple(zip(*(sorted(side, reverse=True) for side in sides))))
)


@given(CHAINS)
@example(((5, 3),))  # depth 0: the parent is the empty chain
@example(((5, 3), (2, 2)))  # a height step of 1: no row keeps the old last column alone
@example(((9, 6), (7, 5), (1, 4)))
def test_rows_extend_the_parent_chain(chain):
    # the parent's rows extended by the last pair are the whole chain's
    parent = chain[:-1]
    last_height = parent[-1][1] if parent else 0
    rows = _extend_rows(_rows_from_pairs(parent), len(parent), last_height, *chain[-1])
    assert rows == _rows_from_pairs(chain)
    assert angles(rows) == chain


# Structural facts about ranks and angles, checked exhaustively for small
# weights (the acceptance module re-runs them to weight 30).


def all_partitions_up_to(n_max):
    for n in range(n_max + 1):
        yield from partitions_of(n)


def test_angle_exceeds_rank_magnitude():
    for parts in all_partitions_up_to(18):
        lengths = angle_lengths(angles(parts))
        for length, rank in zip(lengths, successive_ranks(parts)):
            assert length > abs(rank)


def test_angle_gaps_dominate_rank_jumps():
    for parts in all_partitions_up_to(18):
        lengths = angle_lengths(angles(parts))
        ranks = successive_ranks(parts)
        for i in range(len(lengths) - 1):
            assert lengths[i] - lengths[i + 1] >= 2 + abs(ranks[i] - ranks[i + 1])


def test_angle_lengths_form_distance_2_set():
    for parts in all_partitions_up_to(18):
        lengths = angle_lengths(angles(parts))
        assert all(a - b >= 2 for a, b in zip(lengths, lengths[1:]))


def test_angle_rank_parity():
    for parts in all_partitions_up_to(18):
        lengths = angle_lengths(angles(parts))
        ranks = successive_ranks(parts)
        for length, rank in zip(lengths, ranks):
            assert (length - rank - 1) % 2 == 0


def test_from_angles_rejects_bad_input():
    with pytest.raises(ValueError):
        from_angles(((2, 2), (2, 1)))  # widths not strictly decreasing
    with pytest.raises(ValueError):
        from_angles(((3, 0),))  # nonpositive height


def test_from_angles_error_precedence():
    # the order check between two widths runs before the second width's type
    # check, and the widths are checked before the heights
    with pytest.raises(ValueError) as info:
        from_angles(((1, 1), (2.5, 1)))
    assert str(info.value) == "angle widths must be strictly decreasing: [1, 2.5]"
    with pytest.raises(ValueError) as info:
        from_angles(((3, 1), (2.5, 3)))
    assert str(info.value) == "angle widths must be positive integers, got 2.5"
    with pytest.raises(ValueError, match="angle heights must be positive integers, got True"):
        from_angles(((2, True),))
    assert from_angles([(3, 3), (1, 1)]) == from_angles(((3, 3), (1, 1))) == (3, 2, 1)


# Every public function that takes a count (a weight, order, size, box side
# or cap) refuses a negative one, and one that is not an exact int, under its
# own parameter's name, before any work.
P71 = IdentityParams(7, 1)
COUNT_ARGUMENTS = [
    pytest.param(lambda v: list(partitions_of(v)), "n", id="partitions_of"),
    pytest.param(lambda v: families.rank_window_members(P71, v), "n", id="rank_window_members"),
    pytest.param(lambda v: families.rank_window_counts(P71, v), "max_weight",
                 id="rank_window_counts"),
    pytest.param(lambda v: families.colored_members(P71, v), "n", id="colored_members"),
    pytest.param(lambda v: families.colored_members_up_to(P71, v), "max_weight",
                 id="colored_members_up_to"),
    pytest.param(lambda v: families.colored_head_counts(P71, v, 5), "max_weight",
                 id="colored_head_counts"),
    pytest.param(lambda v: families.colored_members_via_encoding(P71, v), "n",
                 id="colored_members_via_encoding"),
    pytest.param(lambda v: families.boxed_members(P71, v, 4, 4), "n", id="boxed_members"),
    pytest.param(lambda v: families.boxed_counts(P71, 4, 4, cap=v), "cap", id="boxed_counts"),
    pytest.param(lambda v: families.gordon_members(3, 1, v), "n", id="gordon_members"),
    pytest.param(lambda v: families.frequency_counts(P71, v), "max_weight",
                 id="frequency_counts"),
    pytest.param(lambda v: families.gap2_members(v), "n", id="gap2_members"),
    pytest.param(lambda v: families.product_parts_members(P71, v), "n",
                 id="product_parts_members"),
    pytest.param(lambda v: kernels.count_rank_bounded_partitions(v, 4, 0, 1), "max_part",
                 id="count_rank_bounded_partitions-max_part"),
    pytest.param(lambda v: kernels.count_rank_bounded_partitions(4, v, 0, 1), "max_length",
                 id="count_rank_bounded_partitions-max_length"),
    pytest.param(lambda v: kernels.count_rank_bounded_partitions(4, 4, 0, 1, v), "cap",
                 id="count_rank_bounded_partitions-cap"),
    pytest.param(lambda v: series.partition_series(v), "order", id="partition_series"),
    pytest.param(lambda v: series.restricted_product(P71, v), "order", id="restricted_product"),
    pytest.param(lambda v: series.bosonic_sum(P71, v), "order", id="bosonic_sum"),
    pytest.param(lambda v: series.fermionic_multisum(P71, v), "order", id="fermionic_multisum"),
    pytest.param(lambda v: series.finitized_box(P71, v), "size", id="finitized_box"),
    pytest.param(lambda v: series.finitized_lhs(P71, v), "size", id="finitized_lhs"),
    pytest.param(lambda v: series.finitized_rhs(P71, v), "size", id="finitized_rhs"),
    pytest.param(lambda v: render.bijection_rows(P71, v), "n", id="bijection_rows"),
    pytest.param(lambda v: render.table_chunks(P71, v, "csv"), "n", id="table_chunks"),
    pytest.param(lambda v: verify.check_product_counts(P71, v), "n_max",
                 id="check_product_counts"),
    pytest.param(lambda v: verify.check_bijection(P71, v), "n_max", id="check_bijection"),
    pytest.param(lambda v: verify.check_gordon(2, 1, v), "n_max", id="check_gordon"),
    pytest.param(lambda v: verify.finitized_top_ok((), P71, v), "size", id="finitized_top_ok"),
    pytest.param(lambda v: verify.check_finitized(P71, v), "size_max",
                 id="check_finitized-size_max"),
    pytest.param(lambda v: verify.check_finitized(P71, 4, v), "n_max",
                 id="check_finitized-n_max"),
    pytest.param(lambda v: verify.verify_identity_grid(n_max=v), "n_max",
                 id="verify_identity_grid"),
    pytest.param(lambda v: verify.verify_gordon_grid(n_max=v), "n_max", id="verify_gordon_grid"),
]


@pytest.mark.parametrize("call, name", COUNT_ARGUMENTS)
def test_counts_are_refused_under_their_own_name(call, name):
    with pytest.raises(ValueError) as caught:
        call(-1)
    assert str(caught.value) == f"{name} must be nonnegative, got -1"
    for bad in (True, 2.0):
        with pytest.raises(ValueError) as caught:
            call(bad)
        assert str(caught.value) == f"{name} must be an int, got {bad!r}"
