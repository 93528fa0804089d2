"""Enumeration of the partition families the identities count.

Six families share one interface: rank-window members, their colored
encodings, box-bounded rank-window members, Gordon-condition partitions,
gap-2 partitions, and partitions into residue-restricted parts.  Enumerators
return materialized lists at fixed weight, or per-weight buckets.
Rank-window members come from walks over Frobenius pair chains, each
with a cost that follows its output, in which a node's rows are its
parent's extended by its last pair (w, h); the bijection records' walk is
``verify._members_by_top``.  The member lists and the table ask for one
exact weight, and their walks read a per-call child table (``_exact_root``), in which
``_exact_children`` lists each chain state's children once, each with one
entry made once per pair: its rank w - h and the part
:func:`~colorpartitions.coloring.color_map` gives its one-pair chain, so
the table, the public map and ``verify`` share one encoding formula.
``_exact_rows`` extends each chain's rows, ranks and encoding from its
parent's, for the member lists and ``render.bijection_rows``; the table's
walk (``render.table_text``) extends its line instead, and every ``table``
format is written from those lines one first width at a time.
The colored family comes from its membership conditions alone, by a
depth-first recursion over (size, color) parts (``_colored_chains``).
Per-weight fast counts go through the Frobenius-pair counting kernel (rank
windows), a transfer matrix over heads with one running sum per (color,
size-parity) class (colored family), or one over part frequencies
(Gordon's family).
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import kernels
from .coloring import (
    ColoredPartition,
    IdentityParams,
    _gap_ok,
    _rank_ok,
    _size_ok,
    check_conditions,
    color_map,
    rank_from_color,
)
from .partitions import (
    Partition, _extend_rows, _require_count, _require_int, partitions_of, successive_ranks
)

__all__ = [
    "FamilySpec",
    "enumerate_family",
    "ranked_partitions",
    "rank_window_members",
    "rank_window_counts",
    "colored_members",
    "colored_members_up_to",
    "colored_head_counts",
    "colored_members_via_encoding",
    "boxed_members",
    "boxed_counts",
    "gordon_members",
    "frequency_counts",
    "gap2_members",
    "product_parts_members",
]


def ranked_partitions(n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """All partitions of n paired with their successive ranks.

    The filter route to the rank-window family, kept as the test oracle for
    the pair-chain descent; its cost grows like p(n).
    """
    return tuple((p, successive_ranks(p)) for p in partitions_of(n))


def rank_window_members(params: IdentityParams, n: int) -> list[Partition]:
    """Partitions of n with every successive rank inside the window.

    Reverse-lexicographic order, as :func:`ranked_partitions` filtered.
    """
    return [p for p, _, _ in _window_rows(params, n, n, n)]


def _window_rows(
    params: IdentityParams, n: int, max_part: int, max_length: int
) -> list[tuple[Partition, tuple[int, ...], ColoredPartition]]:
    # The rank-window members of weight exactly n in the box, each with its
    # ranks and encoding, in reverse-lexicographic order.
    root = _exact_root(params, n, max_part, max_length)
    if root is None:
        return [((), (), ())]
    rows = []
    _exact_rows(root, rows, (), 0, 0, (), ())
    rows.sort(key=itemgetter(0), reverse=True)
    return rows


def _exact_root(params: IdentityParams, n: int, max_part: int, max_length: int) -> list | None:
    # The root list of the child table (_exact_children) of the rank-window
    # chains of weight exactly n in the box, or None at n = 0, whose one
    # member is the empty chain.  The table is per call, since its parts
    # depend on the residue and its pairs on the window and the box.
    _require_count(n, "n")
    hi = params.max_rank
    # the sweep refuses a non-int box side, at n = 0 too
    _, _, bits, pairs = kernels._pair_sweep(
        max_part, max_length, params.min_rank, hi, n, keep=True
    )
    if not n:
        return None
    return _exact_children(pairs, hi, bits, params, ({}, {}, {}), len(pairs), n + 1, n)


def _boxed_counts(params: IdentityParams, boxes: list[tuple[int, int]]) -> Iterator[list[int]]:
    # boxed_counts(params, W, H) for each box (W, H) of a nonempty list in
    # which neither W nor H falls, from one pair sweep at the last box: the
    # box bounds only the first pair, so f(w, h) serves every box, and each
    # box adds the pairs it newly admits (w <= W, h <= H, ascending h per
    # row) to one running sum, unpacked to W * H + 1 limbs.
    width, height = (max(side, 0) for side in boxes[-1])
    _, _, bits, pairs = kernels._pair_sweep(
        width, height, params.min_rank, params.max_rank, keep=True
    )
    admitted, total = [0] * len(pairs), 1
    for max_part, max_length in boxes:
        if min(max_part, max_length) < 0:
            yield [0]
            continue
        for w in range(1, min(max_part + 1, len(pairs))):
            row, end = pairs[w], admitted[w]
            while end < len(row) and row[end][0] <= max_length:
                total += row[end][1]
                end += 1
            admitted[w] = end
        yield kernels._unpack(total, bits, max_part * max_length + 1)


def _exact_children(pairs, hi, bits, params, memo, w_head, h_head, budget) -> list:
    # The children of the chain state (w_head, h_head, budget) in the walk
    # of one exact weight: each pair (w, h) below (w_head, h_head) that
    # fits the budget, w descending and h ascending, as (w, h, (w - h,),
    # (its colored part,), below), below being None when the pair spends
    # the budget and otherwise the child list of the state (w, h, rest).  A
    # chain is the one kernels.count_rank_bounded_partitions counts: pairs
    # (w_1, h_1) > (w_2, h_2) > ..., both coordinates strictly decreasing,
    # ranks w - h in the window, weight sum(w + h - 1).  pairs is its
    # sweep's: pairs[w] lists (h, f(w, h)) for each admissible pair of the
    # box in ascending h, f(w, h) the packed series of the chains it heads;
    # a box bounds only the first pair, and a rank of at most hi bounds w
    # below h_head + hi.  A pair is taken only if limb ``budget`` of the
    # series f(w, h) is nonzero, so every branch reaches a chain of weight
    # exactly the root budget.  The children depend only on the state's
    # caps, min(w_head - 1, budget, h_head - 1 + hi) on w and min(h_head,
    # budget + 1) on h, and its budget, and a child only on (w, h, budget).
    # memo = (lists, nodes, entries) keeps one list per state key, built on
    # the key's first visit, one child tuple per (w, h, budget), shared by
    # every list, and each pair's rank and part tuples, shared by every
    # child.  A pair's part tuple is color_map of its one-pair chain, whose
    # rows _extend_rows gives: a chain's encoding is its parts in order,
    # each read from its own pair alone.  (At table 10 5 40 the 2,925 list
    # entries hold 634 child tuples; a tuple per entry raised the walk's
    # peak RSS above the per-frame scan's.)  The budget falls along every edge, so the lists
    # hold no reference cycle.
    lists, nodes, entries = memo
    key = (min(w_head - 1, budget, h_head - 1 + hi), min(h_head, budget + 1), budget)
    children = lists.get(key)
    if children is not None:
        return children
    children = lists[key] = []
    top, h_cap, _ = key
    shift, limb = bits * budget, (1 << bits) - 1
    for w in range(top, 0, -1):
        for h, chains in pairs[w]:
            if h >= h_cap or w + h - 1 > budget:
                break
            if not (chains >> shift) & limb:
                continue
            node = nodes.get((w, h, budget))
            if node is None:
                entry = entries.get((w, h))
                if entry is None:
                    entry = entries[w, h] = (
                        (w - h,), color_map(_extend_rows((), 0, 0, w, h), params)
                    )
                rest = budget - w - h + 1
                below = (
                    _exact_children(pairs, hi, bits, params, memo, w, h, rest) if rest else None
                )
                node = nodes[w, h, budget] = (w, h, *entry, below)
            children.append(node)
    return children


def _exact_rows(children, rows, p, depth, last, ranks, colored) -> None:
    # Appends to ``rows`` the (rows, ranks, encoding) of every chain of an
    # _exact_children list below the node whose rows, depth, last height,
    # ranks and encoding are p, depth, last, ranks and colored.  A module
    # function, so no closure holds the rows in a reference cycle.
    for w, h, rank, part, below in children:
        q = _extend_rows(p, depth, last, w, h)
        if below is None:
            rows.append((q, ranks + rank, colored + part))
        else:
            _exact_rows(below, rows, q, depth + 1, h, ranks + rank, colored + part)


def rank_window_counts(params: IdentityParams, max_weight: int) -> list[int]:
    """Per-weight counts of rank-window partitions, via the counting kernel."""
    _require_count(max_weight, "max_weight")
    return kernels.count_rank_bounded_partitions(
        max_weight, max_weight, params.min_rank, params.max_rank, cap=max_weight
    )


def _admissible_colors(params: IdentityParams, max_size: int) -> list[list[int]]:
    # Colors a part of each size 0..max_size may carry under conditions (i)
    # and (iii), ascending; (iii) bounds the rank the part encodes by M - r - 2.
    return [
        [
            color
            for color in range(1, params.color_count + 1)
            if _size_ok(size, rank := rank_from_color(size, color, params))
            and _rank_ok(rank, params)
        ]
        for size in range(max_size + 1)
    ]


def colored_head_counts(
    params: IdentityParams, max_weight: int, max_size: int
) -> dict[ColoredPartition, list[int]]:
    """Weight series of the colored members each head heads, 0..max_weight.

    Maps each head ``((size, color),)`` with size at most ``max_size`` (and
    ``()``, heading only the empty member) to ``counts`` with ``counts[w]``
    the number of condition-respecting colored partitions of weight w whose
    head it is: the same series as tallying ``member[:1]`` over
    :func:`colored_members_up_to`'s buckets, which serve as the oracle.
    Counted by the transfer-matrix method over heads (Stanley, Enumerative
    Combinatorics I, 4.7), smallest head first: the members headed by (s, c)
    are (s, c) prepended to the empty member and to each member whose head
    may follow it under condition (ii), so their series is the sum of those
    heads' series shifted by s.  Within one (color, size-parity) class of
    the following head, condition (ii) asks a fixed gap, so the heads that
    may follow (s, c) are those of the class up to a cut in size: one
    running sum per class, read at each class's cut, stands for all of them.
    ``max_size`` must be an int; at or below 0 only ``()`` is a head.

    The counts run packed (``_colored_head_counts``, which ``verify`` reads
    directly, summing heads without unpacking them); this unpacks each
    head's series into its own list.
    """
    bits, packed = _colored_head_counts(params, max_weight, max_size)
    headed = {}
    for head, value in packed.items():
        size = head[0][0] if head else 0
        headed[head] = [0] * size + kernels._unpack(
            value >> (bits * size), bits, max_weight + 1 - size
        )
    return headed


def _colored_head_counts(
    params: IdentityParams, max_weight: int, max_size: int
) -> tuple[int, dict[ColoredPartition, int]]:
    # (B, packed): the head transfer matrix of colored_head_counts, packed.
    # packed maps each head to its series packed at limb width B, truncated
    # past max_weight, in ascending size: () first, then each size's heads.
    #
    # Each coefficient of a head's series, and of any sum of distinct heads'
    # series, counts distinct colored partitions of its weight w whose sizes
    # fall by at least 2 (each cut starts two or three below the head and
    # only falls) and whose colors lie in 1..C, whatever conditions (i) and
    # (ii) say: a partition of w into j such parts has j <= isqrt(w), so
    # there are at most p(w) * C^isqrt(w) <= p(max_weight) *
    # C^isqrt(max_weight), p being nondecreasing.  That is below 2^B for B
    # the bit length of p(max_weight) (_limb_bits) plus that of
    # C^isqrt(max_weight), so no limb carries.
    _require_count(max_weight, "max_weight")
    _require_int(max_size, "max_size")
    start = min(max_size, max_weight)
    colors_of = _admissible_colors(params, start)
    colors = range(1, params.color_count + 1)
    bits = kernels._limb_bits(max_weight) + (params.color_count ** isqrt(max_weight)).bit_length()
    mask = (1 << (bits * (max_weight + 1))) - 1
    packed: dict[ColoredPartition, int] = {(): 1}
    # running[c][s]: the summed series of the heads (s', c), s' <= s, s' = s mod 2
    running = [[0] * (start + 1) for _ in range(params.color_count + 1)]
    for size in range(1, start + 1):
        for color in colors_of[size]:
            tails = 1  # the empty member
            for tail_color in colors:
                for cut in (size - 2, size - 3):  # (ii) asks a gap of at least 2
                    while cut > 0 and not _gap_ok(size, color, cut, tail_color, params):
                        cut -= 2
                    if cut > 0:
                        tails += running[tail_color][cut]
            packed[((size, color),)] = (tails << (bits * size)) & mask
        for color in colors:
            below = running[color][size - 2] if size > 1 else 0
            running[color][size] = below + packed.get(((size, color),), 0)
    return bits, packed


def colored_members_up_to(
    params: IdentityParams, max_weight: int, max_size: int | None = None
) -> list[list[ColoredPartition]]:
    """Condition-respecting colored partitions bucketed by weight 0..max_weight.

    Generated directly from the membership conditions — independent of the
    rank-window encoding, which makes the two routes cross-checkable.  A
    descent over (size, color) parts, largest first; condition (ii) forces a
    gap of at least 2, so the budget prunes fast.  ``max_size``, an int or
    None, bounds the largest part.
    """
    _require_count(max_weight, "max_weight")
    if max_size is not None:
        _require_int(max_size, "max_size")
    start = max_weight if max_size is None else min(max_size, max_weight)
    buckets: list[list[ColoredPartition]] = [[()]] + [[] for _ in range(max_weight)]
    _colored_chains(params, _admissible_colors(params, start), buckets, (), start, max_weight)
    return buckets


def _colored_chains(params, colors_of, buckets, chain, size_bound, budget) -> None:
    # Files in ``buckets`` by weight each extension of ``chain`` by one
    # admissible part of size at most size_bound and budget that may follow
    # its last part under condition (ii), each followed by its own
    # extensions, depth first.  A module function, so no closure holds the
    # buckets in a reference cycle.
    head = chain[-1] if chain else None
    for size in range(min(size_bound, budget), 0, -1):
        for color in colors_of[size]:
            if head is None or _gap_ok(*head, size, color, params):
                longer = chain + ((size, color),)
                rest = budget - size
                buckets[-1 - rest].append(longer)
                if rest:
                    _colored_chains(params, colors_of, buckets, longer, size - 2, rest)


def colored_members(params: IdentityParams, n: int) -> list[ColoredPartition]:
    """Condition-respecting colored partitions of weight exactly n."""
    _require_count(n, "n")
    return colored_members_up_to(params, n)[n]


def boxed_members(
    params: IdentityParams, n: int, max_part: int, max_length: int
) -> list[Partition]:
    """Rank-window members of n fitting max_length rows by max_part columns."""
    _require_count(n, "n")
    # a non-int side falls through to the kernel, which refuses it
    if type(max_part) is type(max_length) is int and min(max_part, max_length) < 0:
        return []
    return [p for p, _, _ in _window_rows(params, n, max_part, max_length)]


def boxed_counts(
    params: IdentityParams, max_part: int, max_length: int, cap: int | None = None
) -> list[int]:
    """Per-weight counts of box-bounded rank-window members, via the kernel.

    A box with a negative side admits nothing (not even the empty partition):
    the result is the single count [0].
    """
    # a non-int side falls through to the kernel, which refuses it
    if type(max_part) is type(max_length) is int and min(max_part, max_length) < 0:
        return [0]
    return kernels.count_rank_bounded_partitions(
        max_part, max_length, params.min_rank, params.max_rank, cap=cap
    )


def gordon_members(half_modulus: int, residue: int, n: int) -> list[Partition]:
    """Partitions of n with bounded repetition depth and few ones.

    Conditions: parts k-1 apart differ by at least 2 (k the half-modulus, so
    no value repeats k or more times), and fewer than ``residue`` ones.  The
    filter over every partition of n, kept as the test oracle of
    :func:`frequency_counts`.  ``half_modulus`` must be an int k >= 1 and
    ``residue`` an int in 1..k, each refused under its own name.
    """
    _require_gordon(half_modulus, residue)
    _require_count(n, "n")
    return [
        p
        for p in partitions_of(n)
        if p.count(1) < residue and all(a - b >= 2 for a, b in zip(p, p[half_modulus - 1 :]))
    ]


def _require_gordon(half_modulus: int, residue: int) -> None:
    # The one check on a Gordon cell: an int half-modulus k >= 1 and an int
    # residue in 1..k, each refused under its own name.
    _require_int(half_modulus, "half_modulus")
    _require_int(residue, "residue")
    if half_modulus < 1:
        raise ValueError(f"half_modulus must be >= 1, got {half_modulus}")
    if not 1 <= residue <= half_modulus:
        raise ValueError(f"residue must satisfy 1 <= r <= k, got r={residue} for k={half_modulus}")


def frequency_counts(params: IdentityParams, max_weight: int) -> list[int]:
    """Per-weight counts of Gordon's partitions at an odd modulus M = 2k + 1.

    With f_i the number of times the part i occurs, Gordon's condition is
    f_1 <= r - 1 and f_i + f_(i+1) <= k - 1 (Gordon, Amer. J. Math. 83,
    1961): the family :func:`gordon_members` filters, counted here by a
    transfer matrix over part values 1..max_weight whose state is the
    frequency of the current value.  The partitions into parts at most i
    with f_i = f are those into parts below i with f_(i-1) <= k - 1 - f,
    shifted by i * f: one prefix sum over the previous states serves every
    f.  Each state and prefix sum is one packed int (``kernels``), truncated
    past max_weight; its coefficients count distinct partitions of their
    weight w <= max_weight, at most p(w) <= p(max_weight), so
    ``_limb_bits(max_weight)``, the bit length of p(max_weight), holds them
    with no carry.  An even modulus raises ValueError.
    """
    if not params.is_odd:
        raise ValueError(f"Gordon's condition needs an odd modulus, got {params.modulus}")
    _require_count(max_weight, "max_weight")
    k, r = params.half_modulus, params.residue
    bits = kernels._limb_bits(max_weight)
    mask = (1 << (bits * (max_weight + 1))) - 1
    states = [1]  # parts below 1: the empty partition, f_0 = 0
    for i in range(1, max_weight + 1):
        below = list(accumulate(states))
        cap = min((r if i == 1 else k) - 1, max_weight // i)
        states = [
            (below[min(k - 1 - f, len(below) - 1)] << (bits * i * f)) & mask
            for f in range(cap + 1)
        ]
    return kernels._unpack(sum(states), bits, max_weight + 1)


def gap2_members(n: int, min_part: int = 1) -> list[Partition]:
    """Partitions of n whose parts decrease by at least 2, parts >= min_part.

    ``min_part`` must be an int.
    """
    _require_count(n, "n")
    _require_int(min_part, "min_part")
    return [
        p
        for p in partitions_of(n)
        if (not p or p[-1] >= min_part) and all(a - b >= 2 for a, b in zip(p, p[1:]))
    ]


def product_parts_members(params: IdentityParams, n: int) -> list[Partition]:
    """Partitions of n into parts avoiding residues 0 and +-r mod the modulus."""
    _require_count(n, "n")
    m = params.modulus
    excluded = {0, params.residue % m, (m - params.residue) % m}
    return [
        p for p in partitions_of(n) if all(part % m not in excluded for part in p)
    ]


class FamilySpec(NamedTuple):
    """Selector for one family at one weight.

    tag: rank_window | colored | boxed | gordon | gap2 | product_parts.
    ``max_part``/``max_length`` apply to boxed; ``min_part`` to gap2.
    """

    tag: str
    n: int
    params: IdentityParams | None = None
    max_part: int | None = None
    max_length: int | None = None
    min_part: int = 1


def enumerate_family(spec: FamilySpec):
    """Materialize the family a spec selects (list of members)."""
    tag = spec.tag
    if tag == "rank_window":
        return rank_window_members(_params_of(spec), spec.n)
    if tag == "colored":
        return colored_members(_params_of(spec), spec.n)
    if tag == "boxed":
        if spec.max_part is None or spec.max_length is None:
            raise ValueError("boxed family needs max_part and max_length")
        return boxed_members(_params_of(spec), spec.n, spec.max_part, spec.max_length)
    if tag == "gordon":
        params = _params_of(spec)
        if not params.is_odd:
            raise ValueError("the Gordon family needs an odd modulus")
        return gordon_members(params.half_modulus, params.residue, spec.n)
    if tag == "gap2":
        return gap2_members(spec.n, spec.min_part)
    if tag == "product_parts":
        return product_parts_members(_params_of(spec), spec.n)
    raise ValueError(f"unknown family tag {tag!r}")


def _params_of(spec: FamilySpec) -> IdentityParams:
    if spec.params is None:
        raise ValueError(f"family {spec.tag!r} needs identity parameters")
    return spec.params


def colored_members_via_encoding(
    params: IdentityParams, n: int
) -> list[ColoredPartition]:
    """Colored partitions of n obtained by encoding each rank-window member.

    Second route to the colored family; every result is re-checked against
    the membership conditions.
    """
    encoded = []
    for p in rank_window_members(params, n):
        member = color_map(p, params)
        check = check_conditions(member, params)
        if not check:
            raise AssertionError(
                f"encoding of {p} violates condition ({check.violation})"
            )
        encoded.append(member)
    return encoded
