"""Family enumerators: counts vs series, dual generation, boxed refinements."""

import gc
import itertools
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorpartitions import (
    FamilySpec,
    IdentityParams,
    boxed_counts,
    boxed_members,
    colored_members,
    colored_members_via_encoding,
    durfee_size,
    enumerate_family,
    families,
    gap2_members,
    gordon_members,
    kernels,
    product_parts_members,
    rank_window_counts,
    rank_window_members,
    successive_ranks,
)
from colorpartitions.coloring import _encode_part, _gap_ok, check_box_condition, color_map
from colorpartitions.families import (
    _admissible_colors,
    _descend,
    _exact_children,
    colored_head_counts,
    colored_members_up_to,
    frequency_counts,
    ranked_partitions,
)
from colorpartitions.partitions import _rows_from_pairs, partitions_of
from colorpartitions.render import bijection_rows
from colorpartitions.series import bosonic_sum, restricted_product
from colorpartitions import verify
from colorpartitions.verify import _members_by_top

P71 = IdentityParams(7, 1)
P83 = IdentityParams(8, 3)
P52 = IdentityParams(5, 2)

ALL_PARAMS = [
    IdentityParams(m, r)
    for m in range(4, 10)
    for r in range(1, m // 2 + 1)
]


def brute_members(params, n):
    # independent oracle: diagonal ranks from raw column heights
    lo, hi = params.min_rank, params.max_rank
    out = []
    for p in partitions_of(n):
        d = sum(1 for i, part in enumerate(p) if part > i)
        ranks = [p[i] - sum(1 for part in p if part > i) for i in range(d)]
        if all(lo <= x <= hi for x in ranks):
            out.append(p)
    return out


def test_rank_window_members_small_oracle():
    for params in (P71, P83, P52):
        for n in range(13):
            assert rank_window_members(params, n) == brute_members(params, n)


def test_window_family_at_weight_ten():
    members = rank_window_members(P71, 10)
    assert len(members) == 8
    assert (7, 1, 1, 1) in members
    assert (4, 4, 2) in members
    assert (10,) not in members  # rank 9 exceeds the window


def test_even_modulus_family_at_weight_ten():
    assert len(rank_window_members(P83, 10)) == 20


def test_degenerate_window_is_empty():
    # modulus 3 leaves no admissible ranks: every nonempty partition fails
    p31 = IdentityParams(3, 1)
    for n in range(1, 12):
        assert rank_window_members(p31, n) == []
    assert rank_window_members(p31, 0) == [()]


def _with_mutant(mutant, action):
    # run action() with verify.color_map replaced by mutant(real), if any
    if mutant is None:
        return action()
    real = verify.color_map
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "color_map", mutant(real))
        return action()


def _all_suspects(real):
    # () encodes to ((1, 1),), so the empty member is a suspect and
    # certifies no chain: every member is one
    return lambda p, params: real(p, params) if p else ((1, 1),)


def _residue_two_misencoded(real):
    # colors one too high on parts of size at least 5, at r = 2 only
    def encode(p, params):
        member = real(p, params)
        if params.residue != 2:
            return member
        return tuple((size, color + (size >= 5)) for size, color in member)

    return encode


def members_by_top(modulus, residues, max_weight):
    # every member of one shared walk, per residue, as (member, run index),
    # read from its suspects under the all-suspects mutant; the counts by
    # top rank are those of the suspects
    walked = _with_mutant(_all_suspects, lambda: _members_by_top(modulus, residues, max_weight))
    filed = {}
    for r, (counts, suspects) in walked.items():
        for n, members in enumerate(suspects):
            tally = [0] * (modulus - 2)
            for _, index in members:
                tally[index] += 1
            assert tally == counts[n], (r, n)
        filed[r] = suspects
    return filed


def filtered_by_top(params, n):
    # the filtered oracle's members of weight n, each with its run index:
    # top rank t files at t + r - 1, the empty member at 0
    r = params.residue
    top = lambda p: max(successive_ranks(p), default=1 - r)
    return sorted((p, top(p) + r - 1) for p in _window_filter(params, n))


def test_shared_descent_matches_per_modulus_descents():
    # one walk at the widest modulus for every residue: under the
    # all-suspects mutant each residue's suspects list its members with
    # their run index, as the filtered oracle files them by top rank; on
    # correct code the counts are the same and no member is a suspect, and
    # the first M - 2 runs of each residue count its members at M
    residues = range(1, 7)
    filed = members_by_top(13, residues, 22)
    walked = _members_by_top(13, residues, 22)
    assert sorted(filed) == sorted(walked) == list(residues)
    for r in residues:
        counts, suspects = walked[r]
        assert len(counts) == len(filed[r]) == 23
        assert suspects == [[] for _ in range(23)]
        for n in range(23):
            assert len(counts[n]) == 11
            assert sorted(filed[r][n]) == filtered_by_top(IdentityParams(13, r), n), (r, n)
            assert sum(counts[n]) == len(filed[r][n])
        for modulus in range(max(3, 2 * r), 14):
            params = IdentityParams(modulus, r)
            cut = [sum(runs[: modulus - 2]) for runs in counts]
            assert cut == rank_window_counts(params, 22), params
    assert _members_by_top(3, [1], 4) == {1: ([[1], [0], [0], [0], [0]], [[]] * 5)}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    modulus=st.integers(3, 13),
    n=st.integers(0, 18),
    mutant=st.sampled_from([None, _all_suspects, _residue_two_misencoded]),
)
def test_shared_walk_matches_one_residue_walks(data, modulus, n, mutant):
    # the walk over several residues' windows against one walk per residue:
    # the same counts by top rank and the same suspects, in the same order,
    # with the certificate on and off
    residues = sorted(data.draw(st.sets(st.integers(1, modulus // 2), min_size=1)))
    certify = data.draw(st.booleans())
    shared = _with_mutant(mutant, lambda: _members_by_top(modulus, residues, n, certify=certify))
    assert sorted(shared) == residues
    for r in residues:
        alone = _with_mutant(mutant, lambda: _members_by_top(modulus, [r], n, certify=certify))
        assert shared[r] == alone[r], r
        if not certify:
            assert shared[r][1] == [[] for _ in range(n + 1)]


def test_rank_window_counts_match_members():
    for params in (P71, P83, P52):
        counts = rank_window_counts(params, 18)
        assert len(counts) == 19
        for n in range(19):
            assert counts[n] == len(rank_window_members(params, n))


def test_counts_match_series_coefficients():
    for params in ALL_PARAMS:
        counts = tuple(rank_window_counts(params, 16))
        theta = bosonic_sum(params, 16)
        assert counts == theta.coefficients, params
        if params.has_product_form:
            assert counts == restricted_product(params, 16).coefficients


def test_counts_match_series_at_weight_200():
    # reach: the kernel against both closed forms for every M = 4..12
    for m in range(4, 13):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            counts = tuple(rank_window_counts(params, 200))
            assert counts == bosonic_sum(params, 200).coefficients, params
            if params.has_product_form:
                assert counts == restricted_product(params, 200).coefficients


def test_colored_members_match_encoded_route():
    # direct generation from the membership conditions vs the image of the
    # rank-window encoding: identical sets at every weight
    for params in (P71, P83, P52, IdentityParams(8, 4)):
        direct = colored_members_up_to(params, 14)
        for n in range(15):
            encoded = colored_members_via_encoding(params, n)
            assert sorted(direct[n]) == sorted(encoded), (params, n)


def test_colored_members_frozen_rows():
    members = colored_members(P83, 10)
    assert len(members) == 20
    assert ((6, 1), (3, 1), (1, 1)) in members
    assert ((10, 3),) in members


def test_colored_members_weight_zero():
    assert colored_members(P71, 0) == [()]


WEIGHTED_ROUTES = (
    lambda w: rank_window_members(P71, w),
    lambda w: _members_by_top(7, [1], w),
    lambda w: rank_window_counts(P71, w),
    lambda w: boxed_members(P71, w, 4, 4),
    lambda w: colored_members(P71, w),
    lambda w: colored_members_up_to(P71, w),
    lambda w: colored_head_counts(P71, w, 5),
    lambda w: colored_members_via_encoding(P71, w),
    lambda w: gordon_members(3, 1, w),
    lambda w: frequency_counts(P71, w),
    lambda w: gap2_members(w),
    lambda w: product_parts_members(P71, w),
)


def test_colored_routes_reject_negative_weight():
    # every weighted enumerator, the rank-window ones included
    for route in WEIGHTED_ROUTES:
        with pytest.raises(ValueError, match="nonnegative"):
            route(-1)


def test_weighted_routes_reject_non_int_weight():
    # integers only: a bool would otherwise count as weight 0 or 1
    for route in WEIGHTED_ROUTES:
        for bad in (True, False, 2.0, "3"):
            with pytest.raises(ValueError, match="must be an int"):
                route(bad)


def test_colored_routes_reject_non_int_max_size():
    # a float size bound is refused, not left to range(); a bool is not 1
    for route in (
        lambda m: colored_head_counts(P71, 6, m),
        lambda m: colored_members_up_to(P71, 6, m),
    ):
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="max_size must be an int"):
                route(bad)
    # None (no bound), 0 and negative bounds keep their meaning
    assert colored_members_up_to(P71, 6, None) == colored_members_up_to(P71, 6)
    for bound in (0, -2):
        assert colored_head_counts(P71, 6, bound) == {(): [1, 0, 0, 0, 0, 0, 0]}
        assert colored_members_up_to(P71, 6, bound) == [[()]] + [[] for _ in range(6)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), max_size=st.integers(0, 15))
def test_head_counts_match_stream(data, modulus, max_size):
    # the transfer-matrix head series against the enumerated members' heads;
    # weight 64 reaches the heaviest member with largest part 15
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    max_weight = data.draw(st.integers(0, 64))
    oracle = {}
    for w, bucket in enumerate(colored_members_up_to(params, max_weight, max_size)):
        for member in bucket:
            oracle.setdefault(member[:1], [0] * (max_weight + 1))[w] += 1
    assert colored_head_counts(params, max_weight, max_size) == oracle


def _head_counts_oracle(params, max_weight, max_size):
    # The head transfer matrix summing, for each head, every earlier head's
    # series that condition (ii) lets follow it: no running sums per class.
    start = min(max_size, max_weight)
    colors_of = _admissible_colors(params, start)
    headed = {(): [1] + [0] * max_weight}
    for size in range(1, start + 1):
        for color in colors_of[size]:
            tails = [
                tail
                for head, tail in headed.items()
                if not head or _gap_ok(size, color, *head[0], params)
            ]
            counts = [0] * size + list(map(sum, zip(*tails)))
            headed[(size, color),] = counts[: max_weight + 1]
    return headed


def test_running_head_sums_match_all_tails_at_weight_60():
    # past the member oracle's reach: every cell M = 3..13, tall and short heads
    for m in range(3, 14):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for max_size in (60, 7):
                expected = _head_counts_oracle(params, 60, max_size)
                assert colored_head_counts(params, 60, max_size) == expected, (params, max_size)


def head_counts_by_lists(params, max_weight, max_size):
    """The running-sum head transfer matrix on coefficient lists.

    Reads ``_gap_ok`` and ``_admissible_colors`` through ``families``, as
    the packed DP does, so a patched predicate reaches both.
    """
    start = min(max_size, max_weight)
    colors_of = families._admissible_colors(params, start)
    colors = range(1, params.color_count + 1)
    zero = [0] * (max_weight + 1)
    empty = [1] + zero[1:]
    headed = {(): empty}
    running = [[zero] * (start + 1) for _ in range(params.color_count + 1)]
    for size in range(1, start + 1):
        for color in colors_of[size]:
            tails = [empty]
            for tail_color in colors:
                for cut in (size - 2, size - 3):
                    while cut > 0 and not families._gap_ok(size, color, cut, tail_color, params):
                        cut -= 2
                    if cut > 0:
                        tails.append(running[tail_color][cut])
            counts = [0] * size + list(map(sum, zip(*tails)))
            headed[(size, color),] = counts[: max_weight + 1]
        for color in colors:
            below = running[color][size - 2] if size > 1 else zero
            counts = headed.get(((size, color),))
            running[color][size] = below if counts is None else list(map(add, below, counts))
    return headed


def frequency_counts_by_lists(params, max_weight):
    """Gordon's frequency transfer matrix on coefficient lists, truncated per state."""
    k, r = params.half_modulus, params.residue
    states = [[1] + [0] * max_weight]
    for i in range(1, max_weight + 1):
        below = list(itertools.accumulate(states, lambda a, b: list(map(add, a, b))))
        cap = min((r if i == 1 else k) - 1, max_weight // i)
        states = [
            [0] * (i * f) + below[min(k - 1 - f, len(below) - 1)][: max_weight + 1 - i * f]
            for f in range(cap + 1)
        ]
    return list(map(sum, zip(*states)))


CELLS_TO_14 = [IdentityParams(m, r) for m in range(3, 15) for r in range(1, m // 2 + 1)]


@settings(max_examples=100, deadline=None)
@given(
    params=st.sampled_from(CELLS_TO_14),
    max_weight=st.integers(0, 60),
    max_size=st.integers(-1, 62),
)
@example(params=IdentityParams(13, 6), max_weight=60, max_size=60)  # the largest counts
@example(params=IdentityParams(14, 7), max_weight=60, max_size=60)
def test_packed_dps_match_list_oracles(params, max_weight, max_size):
    expected = head_counts_by_lists(params, max_weight, max_size)
    assert colored_head_counts(params, max_weight, max_size) == expected
    if params.is_odd:
        assert frequency_counts(params, max_weight) == frequency_counts_by_lists(params, max_weight)


@pytest.mark.parametrize("loosened", [("_gap_ok",), ("_size_ok",), ("_gap_ok", "_size_ok")])
def test_packed_head_counts_hold_any_predicates(monkeypatch, loosened):
    # The limb width rests on the sizes falling by 2 and the colors lying in
    # 1..C, not on conditions (i) and (ii): with either predicate always
    # true the counts grow, and still decode exactly.
    for name in loosened:
        monkeypatch.setattr(families, name, lambda *args: True)
    for m in (5, 8, 11, 14):
        for r in (1, m // 2):
            params = IdentityParams(m, r)
            expected = head_counts_by_lists(params, 60, 60)
            assert colored_head_counts(params, 60, 60) == expected, (params, loosened)


def _window_filter(params, n):
    lo, hi = params.min_rank, params.max_rank
    return [
        p
        for p, ranks in ranked_partitions(n)
        if not ranks or (lo <= min(ranks) and max(ranks) <= hi)
    ]


@settings(max_examples=50, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), n=st.integers(0, 40))
def test_chain_descent_matches_filter(data, modulus, n):
    # the pair-chain descent against filtering every partition of n: same
    # members in the same (reverse-lexicographic) order, exact weight, as a
    # bucket of a heavier descent, and inside a box
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    expected = _window_filter(params, n)
    assert rank_window_members(params, n) == expected
    top = data.draw(st.integers(n, 40))
    filed = members_by_top(modulus, [params.residue], top)[params.residue][n]
    assert sorted(filed) == filtered_by_top(params, n)
    max_part = data.draw(st.integers(0, n + 1))
    max_length = data.draw(st.integers(0, n + 1))
    members = set(expected)
    boxed = [
        p
        for p in partitions_of(n, max_part=max_part)
        if len(p) <= max_length and p in members
    ]
    assert boxed_members(params, n, max_part, max_length) == boxed


@settings(max_examples=100, deadline=None)
@given(data=st.data(), modulus=st.integers(4, 13), n=st.integers(0, 22))
def test_window_rows_match_the_filtered_oracle(data, modulus, n):
    # the exact-weight walk's rows in a box against filtering every
    # partition of n, ranks from ranked_partitions and encodings from
    # color_map; two residues of one (M, n) run back to back, so a child
    # table kept from one call to the next shows
    max_part = data.draw(st.integers(0, n + 1))
    max_length = data.draw(st.integers(0, n + 1))
    residues = data.draw(st.permutations(range(1, modulus // 2 + 1)))[:2]
    for params in map(IdentityParams, [modulus] * 2, residues):
        lo, hi = params.min_rank, params.max_rank
        expected = [
            (p, ranks, color_map(p, params))
            for p, ranks in ranked_partitions(n)
            if (not ranks or (lo <= min(ranks) and max(ranks) <= hi))
            and (not p or p[0] <= max_part)
            and len(p) <= max_length
        ]
        assert families._window_rows(params, n, max_part, max_length) == expected, params


def test_descend_hands_each_node_its_parents_value():
    # toy chains: the sequences of steps 1 and 2, each node the whole
    # sequence so far, spending its last step
    heads = []

    def children(head, budget):
        heads.append((head, budget))
        for step in (1, 2):
            if step <= budget:
                yield (head or ()) + (step,), budget - step

    root, value_of, filed = object(), {}, []

    def file(parent, node, rest):
        filed.append((parent, node, rest))
        value = value_of[node] = object()
        return value

    _descend(children, file, root, None, 5)
    assert len(value_of) == len(filed) == 1 + 2 + 3 + 5 + 8  # every sum 1..5
    for parent, node, rest in filed:
        assert parent is (value_of[node[:-1]] if len(node) > 1 else root)
        assert rest == 5 - sum(node)
    # the root and each node with budget left are descended, no other
    assert heads == [(None, 5)] + [(node, rest) for _, node, rest in filed if rest]


def _pair_descent(pairs, hi, file, parent, w_head, h_head, budget):
    # The all-chains oracle: depth-first descent over Frobenius pair chains
    # (w_1, h_1) > (w_2, h_2) > ..., both coordinates strictly decreasing,
    # ranks w - h in the window, weight sum(w + h - 1), as
    # kernels._pair_sweep hands them over: pairs[w] lists (h, f(w, h)) for
    # each admissible pair of the box in ascending h.  Every pair below
    # (w_head, h_head) that fits ``budget`` is filed, w descending and h
    # ascending, as file(parent, w, h, rest) with rest the budget left
    # after it; the value returned is the ``parent`` its own children
    # receive, and the pair is descended while rest is nonzero.  A rank of
    # at most hi, the window's top, bounds w below h_head + hi.  The root
    # call passes w_head = len(pairs) and h_head = top + 1.
    for w in range(min(w_head - 1, budget, h_head - 1 + hi), 0, -1):
        for h, _ in pairs[w]:
            if h >= h_head or w + h - 1 > budget:
                break
            rest = budget - w - h + 1
            value = file(parent, w, h, rest)
            if rest:
                _pair_descent(pairs, hi, file, value, w, h, rest)


def _walk_pairs(params, top, exact):
    # every chain node of one walk over the box top x top, as (parent's
    # value, pair, rest, own value); a node's value is its chain.  With
    # ``exact`` the walk is the exact-weight child table of weight top
    # (_exact_children), read from its root, and otherwise one
    # _pair_descent, which files every chain up to weight top.
    hi = params.max_rank
    _, _, bits, pairs = kernels._pair_sweep(top, top, params.min_rank, hi, top)
    filed = []

    def file(parent, w, h, rest):
        value = parent + ((w, h),)
        filed.append((parent, (w, h), rest, value))
        return value

    def read(children, parent, budget):
        for w, h, rank, part, below in children:
            assert (rank, part) == ((w - h,), (_encode_part(w, h, params.residue),))
            rest = budget - w - h + 1
            assert (below is None) == (rest == 0)
            value = file(parent, w, h, rest)
            if rest:
                read(below, value, rest)

    if exact:
        memo = lists, nodes, entries = {}, {}, {}
        root = _exact_children(pairs, hi, bits, params.residue, memo, len(pairs), top + 1, top)
        read(root, (), top)
        # one tuple per (w, h, budget), sharing one rank and part per pair
        for (_, _, budget), children in lists.items():
            for child in children:
                w, h, rank, part, _ = child
                assert child is nodes[w, h, budget]
                assert rank is entries[w, h][0] and part is entries[w, h][1]
    else:
        _pair_descent(pairs, hi, file, (), len(pairs), top + 1, top)
    return filed


@pytest.mark.parametrize("params", [P71, P83, P52, IdentityParams(4, 2)])
def test_pair_descent_hands_each_node_its_parents_value(params):
    # each chain of the window up to weight 14 is filed once, with the value
    # returned for its parent chain (the root value for a first pair) and
    # the budget it leaves; read as rows, the chains of weight n are the
    # members of n
    top = 14
    filed = _walk_pairs(params, top, exact=False)
    values = {value: parent for parent, _, _, value in filed}
    assert len(values) == len(filed)
    by_weight = [[] for _ in range(top + 1)]
    for parent, pair, rest, value in filed:
        assert value[:-1] == parent and value[-1] == pair
        assert parent == () or values[parent] == parent[:-1]  # the parent was filed
        assert rest == top - sum(w + h - 1 for w, h in value)
        by_weight[top - rest].append(_rows_from_pairs(value))
    assert by_weight[0] == []  # the root is not filed
    for n in range(1, top + 1):
        assert sorted(by_weight[n], reverse=True) == rank_window_members(params, n)


@pytest.mark.parametrize("params", [P71, P83, P52, IdentityParams(4, 1), IdentityParams(9, 1)])
def test_exact_pair_descent_files_only_chains_of_weight_n(params):
    # read from the root, the exact-weight child table holds only chains
    # that lie on a chain of weight exactly n, and its leaves are the chains
    # of weight n, as many as the kernel counts and in the order the
    # all-chains descent files them
    for n in range(1, 21):
        filed = _walk_pairs(params, n, exact=True)
        leaves = [value for _, _, rest, value in filed if not rest]
        assert len(leaves) == rank_window_counts(params, n)[n], (params, n)
        prefixes = {leaf[:depth] for leaf in leaves for depth in range(1, len(leaf) + 1)}
        assert {value for _, _, _, value in filed} == prefixes, (params, n)
        every = _walk_pairs(params, n, exact=False)
        assert leaves == [value for _, _, rest, value in every if not rest], (params, n)


def test_descents_leave_no_reference_cycles():
    # every member list is freed by reference counting alone
    gc.disable()
    try:
        gc.collect()
        for route in (
            lambda: rank_window_members(P71, 20),
            lambda: _members_by_top(9, [1, 2, 3, 4], 30),
            lambda: members_by_top(9, [1, 2, 3, 4], 30),
            lambda: _members_by_top(9, [1, 2, 3, 4], 30, certify=False),
            lambda: bijection_rows(P71, 20),
            lambda: boxed_members(P71, 20, 8, 8),
            lambda: colored_members_up_to(P71, 30),
        ):
            assert route()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_gordon_members_match_product():
    # bounded-repetition family vs the avoided-residue product coefficients
    for k, r in ((2, 2), (2, 1), (3, 3), (3, 1), (4, 2)):
        params = IdentityParams(2 * k + 1, r)
        product = restricted_product(params, 18)
        for n in range(19):
            assert len(gordon_members(k, r, n)) == product[n], (k, r, n)


def test_frequency_counts_match_gordon_filter():
    # the frequency transfer matrix against the filter over every partition:
    # k = 1..5, every residue, n <= 20
    for k in range(1, 6):
        for r in range(1, k + 1):
            expected = [len(gordon_members(k, r, n)) for n in range(21)]
            assert frequency_counts(IdentityParams(2 * k + 1, r), 20) == expected, (k, r)
    assert frequency_counts(P71, 0) == [1]


def test_frequency_counts_match_product_far_out():
    # Gordon's theorem at weights no filter reaches in reasonable time
    for k, r in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (6, 4)):
        params = IdentityParams(2 * k + 1, r)
        assert frequency_counts(params, 60) == restricted_product(params, 60).padded(60)


def test_frequency_counts_refuse_even_modulus():
    # Bressoud's parity condition at an even modulus is not counted here
    with pytest.raises(ValueError, match="odd modulus"):
        frequency_counts(P83, 10)


def test_gordon_ones_cap():
    # r - 1 ones allowed, r forbidden
    members = gordon_members(3, 3, 10)
    assert (8, 1, 1) in members
    assert all(m.count(1) < 3 for m in members)
    assert (7, 1, 1, 1) not in members


def test_gordon_repetition_depth():
    # no part value may repeat k times
    assert all(
        m[j] - m[j + 2] >= 2 for m in gordon_members(3, 2, 12) for j in range(len(m) - 2)
    )


def test_narrow_window_counts_gap2():
    # ranks confined to [0, 1] match the distinct-parts-with-gap-2 family
    for n in range(19):
        window = [
            p
            for p in partitions_of(n)
            if all(0 <= r <= 1 for r in successive_ranks(p))
        ]
        assert len(window) == len(gap2_members(n)), n


def test_shifted_window_counts_gap2_above_one():
    # ranks confined to [1, 2] match gap-2 partitions with all parts > 1
    for n in range(19):
        window = [
            p
            for p in partitions_of(n)
            if all(1 <= r <= 2 for r in successive_ranks(p))
        ]
        assert len(window) == len(gap2_members(n, min_part=2)), n


def test_boxed_members_respect_box():
    expected = [
        p
        for p in rank_window_members(P71, 10)
        if (not p or p[0] <= 7) and len(p) <= 5
    ]
    assert boxed_members(P71, 10, 7, 5) == expected


def test_boxed_members_nested_in_family():
    for n in range(14):
        inner = boxed_members(P52, n, 4, 3)
        middle = boxed_members(P52, n, 6, 5)
        outer = rank_window_members(P52, n)
        assert set(inner) <= set(middle) <= set(outer)


def test_boxed_counts_stabilize():
    # once the box contains every shape of weight <= cap, counts hit the family
    free = rank_window_counts(P83, 12)
    boxed = boxed_counts(P83, 12, 12, cap=12)
    assert boxed == free


def test_boxed_counts_negative_box():
    assert boxed_counts(P71, -1, 4) == [0]
    assert boxed_members(P71, 3, 2, -1) == []


def test_boxed_routes_reject_non_int_sides():
    for bad in (True, 2.0, "3"):
        for sides in ((bad, 2), (3, bad), (bad, -1)):
            with pytest.raises(ValueError, match="must be an int"):
                boxed_counts(P71, *sides)
            with pytest.raises(ValueError, match="must be an int"):
                boxed_members(P71, 3, *sides)


def test_boxed_counts_match_members():
    for u, v in ((5, 3), (4, 6), (7, 2)):
        counts = boxed_counts(P83, u, v, cap=14)
        for n in range(min(len(counts), 15)):
            assert counts[n] == len(boxed_members(P83, n, u, v)), (u, v, n)


def test_durfee_refines_box_count():
    # members with Durfee square d correspond to colored members with d parts
    # that satisfy the diagonal-hook box law
    u, v = 7, 5
    for params in (P71, P83):
        for n in range(13):
            by_d: dict[int, int] = {}
            for p in boxed_members(params, n, u, v):
                d = durfee_size(p)
                by_d[d] = by_d.get(d, 0) + 1
            colored_by_d: dict[int, int] = {}
            for c in colored_members(params, n):
                if check_box_condition(c, params, u, v):
                    colored_by_d[len(c)] = colored_by_d.get(len(c), 0) + 1
            assert by_d == colored_by_d, (params, n)


def test_product_parts_members_match_series():
    for params in (P52, P71, P83):
        series = restricted_product(params, 16)
        for n in range(17):
            members = product_parts_members(params, n)
            assert len(members) == series[n]
            m = params.modulus
            bad = {0, params.residue % m, (m - params.residue) % m}
            assert all(part % m not in bad for p in members for part in p)


def test_enumerate_family_dispatch():
    spec = FamilySpec("rank_window", 10, params=P71)
    assert enumerate_family(spec) == rank_window_members(P71, 10)
    spec = FamilySpec("colored", 8, params=P83)
    assert enumerate_family(spec) == colored_members(P83, 8)
    spec = FamilySpec("boxed", 9, params=P52, max_part=5, max_length=4)
    assert enumerate_family(spec) == boxed_members(P52, 9, 5, 4)
    spec = FamilySpec("gordon", 10, params=P71)
    assert enumerate_family(spec) == gordon_members(3, 1, 10)
    assert enumerate_family(FamilySpec("gap2", 9)) == gap2_members(9)
    spec = FamilySpec("product_parts", 11, params=P52)
    assert enumerate_family(spec) == product_parts_members(P52, 11)


def test_enumerate_family_rejects_bad_specs():
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("rank_window", 5))  # missing params
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("boxed", 5, params=P71))  # missing box
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("gordon", 5, params=P83))  # even modulus
    with pytest.raises(ValueError):
        enumerate_family(FamilySpec("mystery", 5))


def test_enumerators_are_deterministic():
    for _ in range(2):
        a = rank_window_members(P83, 11)
        b = colored_members(P83, 11)
    assert a == rank_window_members(P83, 11)
    assert b == colored_members(P83, 11)
