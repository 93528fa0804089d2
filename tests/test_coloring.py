"""Colored-partition encoding: frozen examples, round trips, box law."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorpartitions import (
    IdentityParams,
    RankWindowError,
    alt_color_map,
    angles,
    check_box_condition,
    check_conditions,
    color_map,
    format_colored,
    from_angles,
    inverse_map,
    rank_from_color,
    successive_ranks,
    weight,
)
from colorpartitions.coloring import (
    ConditionCheck,
    _decode_part,
    _gap_ok,
    _size_ok,
    validate_colored,
)
from colorpartitions.families import colored_members, colored_members_up_to, rank_window_members
from colorpartitions.partitions import _rows_from_pairs, partitions_of
from colorpartitions.series import finitized_box
from colorpartitions.verify import finitized_top_ok

P71 = IdentityParams(7, 1)
P83 = IdentityParams(8, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        IdentityParams(2, 1)
    with pytest.raises(ValueError):
        IdentityParams(7, 0)
    with pytest.raises(ValueError):
        IdentityParams(7, 4)  # 2r > M
    with pytest.raises(ValueError):
        IdentityParams(7.0, 1)  # integers only
    with pytest.raises(ValueError):
        IdentityParams(5, True)  # a bool is not a residue
    assert IdentityParams(8, 4).half_modulus == 4  # 2r = M allowed


def test_params_derived_fields():
    assert P71.half_modulus == 3
    assert P71.is_odd
    assert P71.color_count == 2
    assert (P71.min_rank, P71.max_rank) == (1, 4)
    assert not P83.is_odd
    assert (P83.min_rank, P83.max_rank) == (-1, 3)
    assert P83.has_product_form
    assert not IdentityParams(8, 4).has_product_form


def test_color_map_frozen_rows():
    assert color_map((6, 4), P71) == ((7, 2), (3, 1))
    assert color_map((5, 5), P83) == ((6, 3), (4, 3))
    assert color_map((), P71) == ()
    assert color_map((6, 2, 1, 1), P83) == ((9, 2), (1, 1))


def test_color_map_rejects_outside_window():
    # (1,) has rank 0, below the window [1, 4] of (M=7, r=1)
    with pytest.raises(RankWindowError) as info:
        color_map((1,), P71)
    assert info.value.index == 1  # positions are 1-based, matching angle numbering


def test_inverse_map_frozen_rows():
    assert inverse_map(((7, 2), (3, 1)), P71) == (6, 4)
    assert inverse_map(((10, 3),), P83) == (7, 1, 1, 1)
    assert inverse_map((), P83) == ()


def test_check_conditions_examples():
    assert check_conditions(((8, 2), (2, 1)), P71)
    assert check_conditions(((10, 3),), P83)
    failed = check_conditions(((9, 3),), P83)
    assert not failed
    assert failed.violation == "iii"
    gap = check_conditions(((3, 1), (3, 1)), P71)
    assert not gap
    assert gap.violation == "ii"
    assert gap.index == 1


def test_check_conditions_initial():
    # size 2 with color 2 at (7,1): 2 ≢ 1 (mod 2) so needs 2 > |2*2-1| = 3
    bad = check_conditions(((2, 2),), P71)
    assert not bad and bad.violation == "i" and bad.index == 1


def test_check_conditions_rejects_malformed():
    with pytest.raises(ValueError):
        check_conditions(((2, 1), (3, 1)), P71)  # sizes increasing
    with pytest.raises(ValueError):
        check_conditions(((3, 5),), P71)  # color out of range


def test_non_int_colored_parts_are_refused():
    # a bool, a float or a string size or color names the offending part,
    # not a value derived from it, and raises ValueError, not TypeError
    params = IdentityParams(5, 1)
    for colored in (((3, True),), ((3.5, 1),), (("3", 1),)):
        with pytest.raises(ValueError, match=r"colored part 1 must be an \(int size"):
            inverse_map(colored, params)
    with pytest.raises(ValueError, match=r"got \(3, 1\.0\)"):
        check_conditions(((3, 1.0),), params)
    with pytest.raises(ValueError, match="colored part 2"):
        validate_colored(((4, 1), (2, False)))
    # the alternative coloring's color 0 is still an int
    validate_colored(alt_color_map((6, 4), P71))


def test_condition_errors_keep_their_precedence():
    # every size is checked before the order, every color before (i)-(iii)
    with pytest.raises(ValueError) as info:
        check_conditions(((2, 1), (3, 1), (0, 1)), P83)
    assert str(info.value) == "colored part sizes must be positive, got 0"
    with pytest.raises(ValueError) as info:
        check_conditions(((9, 3), (3, 9)), P83)
    assert str(info.value) == "color 9 at part 2 outside 1..3 for modulus 8"


def _conditions_oracle(colored, params):
    # One loop per check, in precedence order: structure, color range, (i),
    # (ii), then (iii) for an even modulus.
    validate_colored(colored)
    count = params.color_count
    for i, (_size, color) in enumerate(colored, start=1):
        if not 1 <= color <= count:
            raise ValueError(
                f"color {color} at part {i} outside 1..{count} for modulus {params.modulus}"
            )
    for i, (size, color) in enumerate(colored, start=1):
        if not _size_ok(size, rank_from_color(size, color, params)):
            return ConditionCheck(False, "i", i)
    for i in range(1, len(colored)):
        if not _gap_ok(*colored[i - 1], *colored[i], params):
            return ConditionCheck(False, "ii", i)
    if not params.is_odd:
        for i, (size, color) in enumerate(colored, start=1):
            if color == params.color_count and (size - params.residue) % 2 == 0:
                return ConditionCheck(False, "iii", i)
    return ConditionCheck(True)


def _condition_outcome(check, colored, params):
    try:
        return check(colored, params)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 11), ordered=st.booleans())
def test_one_pass_conditions_match_loop_per_condition(data, modulus, ordered):
    # the same ConditionCheck, or the same ValueError message, as one loop
    # per condition; ordered tuples get past the structural check
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    part = st.tuples(st.integers(0, 10), st.integers(0, params.half_modulus + 1))
    colored = data.draw(st.lists(part, max_size=4))
    if ordered:
        colored.sort(key=lambda p: (-p[0], p[1]))
    colored = tuple(colored)
    assert _condition_outcome(check_conditions, colored, params) == _condition_outcome(
        _conditions_oracle, colored, params
    )


def test_first_condition_outranks_earlier_gap_failure():
    # (ii) fails at part 1 ((3,1) then (2,1) needs a gap of 3), (i) at part 3
    colored = ((3, 1), (2, 1), (1, 1))
    assert not _gap_ok(3, 1, 2, 1, P71)
    size_ok = lambda size, color: _size_ok(size, rank_from_color(size, color, P71))
    assert size_ok(3, 1) and size_ok(2, 1) and not size_ok(1, 1)
    assert check_conditions(colored, P71) == ConditionCheck(False, "i", 3)
    assert _conditions_oracle(colored, P71) == ConditionCheck(False, "i", 3)


def test_color_range_error_outranks_earlier_violation():
    # (1,1) fails (i) at part 1; the color 3 of the last part is out of range
    assert check_conditions(((1, 1),), P71) == ConditionCheck(False, "i", 1)
    with pytest.raises(ValueError) as info:
        check_conditions(((1, 1), (1, 3)), P71)
    assert str(info.value) == "color 3 at part 2 outside 1..2 for modulus 7"


def test_validate_colored_structure():
    validate_colored(((4, 2), (4, 3), (1, 1)))
    with pytest.raises(ValueError):
        validate_colored(((4, 3), (4, 2),))  # equal sizes, colors decreasing
    with pytest.raises(ValueError):
        validate_colored(((0, 1),))


def _color_map_oracle(parts, params):
    # color_map's docstring formula on angles() and successive_ranks(),
    # refusing at the first rank outside the window
    ranks = successive_ranks(parts)
    for i, rank in enumerate(ranks, start=1):
        if not params.rank_in_window(rank):
            raise RankWindowError("outside the window", index=i)
    r = params.residue
    encoded = []
    for (width, height), rank in zip(angles(parts), ranks):
        length = width + height - 1
        numerator = rank + r - 1 if (length - r) % 2 == 0 else rank + r
        assert numerator % 2 == 0
        encoded.append((length, numerator // 2))
    return tuple(encoded)


def _outcome(encode, parts, params):
    try:
        return encode(parts, params)
    except RankWindowError as exc:
        return ("refused at", exc.index)


def test_color_map_matches_formula_oracle():
    # every partition of n <= 18, every (M, r) with M = 3..11: the one-walk
    # encoding equals the formula where the window holds and refuses at the
    # same rank where it does not; the rows rebuilt from the angles agree
    members = [p for n in range(19) for p in partitions_of(n)]
    for p in members:
        assert _rows_from_pairs(angles(p)) == p
    for modulus in range(3, 12):
        for residue in range(1, modulus // 2 + 1):
            params = IdentityParams(modulus, residue)
            for p in members:
                expected = _outcome(_color_map_oracle, p, params)
                assert _outcome(color_map, p, params) == expected, (p, params)


def test_rank_from_color_inverts_coloring():
    for params in (P71, P83, IdentityParams(4, 1), IdentityParams(9, 4)):
        for n in range(13):
            for p in rank_window_members(params, n):
                colored = color_map(p, params)
                ranks = successive_ranks(p)
                for (size, color), rank in zip(colored, ranks):
                    assert rank_from_color(size, color, params) == rank


def test_round_trip_small_grid():
    for params in (P71, P83, IdentityParams(5, 2), IdentityParams(6, 3)):
        for n in range(15):
            direct = colored_members(params, n)
            encoded = []
            for p in rank_window_members(params, n):
                c = color_map(p, params)
                assert check_conditions(c, params)
                assert sum(size for size, _ in c) == n
                assert inverse_map(c, params) == p
                encoded.append(c)
            assert sorted(encoded) == sorted(direct)
            for c in direct:
                assert color_map(inverse_map(c, params), params) == c


@settings(max_examples=200, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), n=st.integers(0, 24))
def test_passing_conditions_give_decreasing_angles(data, modulus, n):
    # a colored partition passing (i)-(iii) decodes through angles whose
    # widths and heights are strictly decreasing and positive, so the
    # unchecked rebuild agrees with from_angles
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    members = colored_members(params, n)
    if not members:
        return
    colored = data.draw(st.sampled_from(members))
    assert check_conditions(colored, params)
    pairs = []
    for size, color in colored:
        width = (size + 1 + rank_from_color(size, color, params)) // 2
        pairs.append((width, size - width + 1))
    for side in (0, 1):
        values = [pair[side] for pair in pairs]
        assert all(value >= 1 for value in values)
        assert all(a > b for a, b in zip(values, values[1:]))
    assert inverse_map(colored, params) == from_angles(pairs)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), n=st.integers(1, 24))
def test_encoding_extends_the_parent_chain(data, modulus, n):
    # a member's Frobenius chain is its parent's chain plus one pair: its
    # encoding is the parent's plus one part, which decodes to that pair
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    members = rank_window_members(params, n)
    if not members:
        return
    p = data.draw(st.sampled_from(members))
    chain = angles(p)
    colored = color_map(p, params)
    assert colored[:-1] == color_map(_rows_from_pairs(chain[:-1]), params)
    assert _decode_part(*colored[-1], params.residue) == chain[-1]


@settings(max_examples=50, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), max_weight=st.integers(0, 24))
def test_decoded_pairs_pass_from_angles(data, modulus, max_weight):
    # every colored member passing (i)-(iii) decodes part by part to pairs
    # with strictly decreasing positive widths and heights, so the unchecked
    # rebuild in the decode agrees with from_angles
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    for bucket in colored_members_up_to(params, max_weight):
        for colored in bucket:
            pairs = [_decode_part(size, color, params.residue) for size, color in colored]
            assert from_angles(pairs) == inverse_map(colored, params)


def _passes(colored, params):
    try:
        return bool(check_conditions(colored, params))
    except ValueError:  # a color out of range
        return False


@settings(max_examples=300, deadline=None)
@given(data=st.data(), wide=st.integers(3, 13), n=st.integers(0, 20))
def test_encoding_reads_the_modulus_only_through_its_window(data, wide, n):
    # for M <= M' of one residue and p in the window at M': the encoding and
    # decode at M agree with those at M' wherever M's window holds p, and it
    # holds p exactly when the encoding passes the color range and (iii) at M
    residue = data.draw(st.integers(1, wide // 2))
    widest = IdentityParams(wide, residue)
    params = IdentityParams(data.draw(st.integers(max(3, 2 * residue), wide)), residue)
    members = rank_window_members(widest, n)
    if not members:
        return
    p = data.draw(st.sampled_from(members))
    colored = color_map(p, widest)
    in_window = all(params.rank_in_window(rank) for rank in successive_ranks(p))
    assert _passes(colored, params) == in_window
    if in_window:
        assert color_map(p, params) == colored
        assert inverse_map(colored, params) == inverse_map(colored, widest) == p
    else:
        with pytest.raises(RankWindowError):
            color_map(p, params)


def enumerate_boxed(params, n, max_width, max_height):
    """Brute-force: window members whose diagram fits the box."""
    out = []
    for p in partitions_of(n, max_part=max_width):
        if len(p) > max_height:
            continue
        ranks = successive_ranks(p)
        if all(params.rank_in_window(t) for t in ranks):
            out.append(p)
    return out


def test_box_condition_against_enumeration():
    # the box law must select exactly the colored images of box-bounded
    # members, at both parities, at 2r = M and in every box up to 6 x 6
    for params in (P71, P83, IdentityParams(8, 4), IdentityParams(6, 1)):
        for n in range(16):
            colored = colored_members(params, n)
            for u in range(7):
                for v in range(7):
                    boxed = {color_map(p, params) for p in enumerate_boxed(params, n, u, v)}
                    for c in colored:
                        assert check_box_condition(c, params, u, v) == (c in boxed), (
                            params, u, v, c
                        )


def test_box_condition_trivial_cases():
    assert check_box_condition((), P71, 0, 0)
    assert check_box_condition(((10, 2),), P71, 100, 100)


def test_finitized_top_matches_box_condition():
    # the size-parametrized largest-part bound is the box law at the
    # finitization's box dimensions
    for params in (P71, P83, IdentityParams(5, 2), IdentityParams(8, 4)):
        for size in range(9):
            u, v = finitized_box(params, size)
            for n in range(14):
                for c in colored_members(params, n):
                    if u < 0 or v < 0:
                        assert not finitized_top_ok(c, params, size)
                    else:
                        assert finitized_top_ok(c, params, size) == check_box_condition(
                            c, params, u, v
                        )


def test_alt_color_map_example():
    colored = alt_color_map((6, 4), P71)
    assert colored == ((7, 2), (3, 0))


def test_alt_color_map_collides_under_the_fold():
    # The fold |rank - (k-r)| sends ranks 1 and 3 to the same color at
    # (7,1), so members sharing angle lengths but sitting on opposite sides
    # of the fold collide: (5,5) has ranks (3,3), (4,4,2) has ranks (1,1),
    # and both land on ((6,1),(4,1)).  The map is therefore not injective;
    # pin the exact image multiset so any change in behavior surfaces.
    members = rank_window_members(P71, 10)
    assert len(members) == 8
    assert alt_color_map((5, 5), P71) == alt_color_map((4, 4, 2), P71) == ((6, 1), (4, 1))
    images = {alt_color_map(p, P71) for p in members}
    assert len(images) == 5


def test_alt_color_map_rejects_outside_window():
    with pytest.raises(RankWindowError):
        alt_color_map((1, 1), P71)


def test_degenerate_modulus_three():
    params = IdentityParams(3, 1)
    assert params.min_rank > params.max_rank
    assert rank_window_members(params, 0) == [()]
    assert colored_members(params, 0) == [()]
    for n in range(1, 9):
        assert rank_window_members(params, n) == []
        assert colored_members(params, n) == []


def test_format_colored():
    assert format_colored(((9, 2), (1, 1))) == "(9_2,1_1)"
    assert format_colored(()) == "()"
