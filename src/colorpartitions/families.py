"""Enumeration of the partition families the identities count.

Six families share one interface: rank-window members, their colored
encodings, box-bounded rank-window members, Gordon-condition partitions,
gap-2 partitions, and partitions into residue-restricted parts.  Enumerators
return materialized lists at fixed weight, or per-weight buckets; rank-window
members come from a descent over Frobenius pair chains, whose cost follows
the output.  Per-weight fast counts go through the Frobenius-pair counting
kernel (rank windows) or a transfer matrix over heads (colored family).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .coloring import (
    ColoredPartition,
    IdentityParams,
    _gap_ok,
    _size_ok,
    _top_color_ok,
    check_conditions,
    color_map,
)
from .partitions import Partition, _rows_from_pairs, partitions_of, successive_ranks

__all__ = [
    "FamilySpec",
    "enumerate_family",
    "ranked_partitions",
    "rank_window_members",
    "rank_window_members_up_to",
    "rank_window_counts",
    "colored_members",
    "colored_members_up_to",
    "colored_head_counts",
    "colored_members_via_encoding",
    "boxed_members",
    "boxed_counts",
    "gordon_members",
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
    _require_weight(n, "n")
    return _window_chains(params, n, True, n, n)[n]


def rank_window_members_up_to(
    params: IdentityParams, max_weight: int
) -> list[list[Partition]]:
    """Rank-window members bucketed by weight 0..max_weight.

    Bucket n equals ``rank_window_members(params, n)``; one descent serves
    every weight, so each member is built once.
    """
    _require_weight(max_weight)
    return _window_chains(params, max_weight, False, max_weight, max_weight)


def _window_chains(
    params: IdentityParams, top: int, exact: bool, max_part: int, max_length: int
) -> list[list[Partition]]:
    # Rank-window members by weight 0..top, each bucket reverse-lexicographic:
    # a descent over Frobenius pair chains (w_1, h_1) > (w_2, h_2) > ..., both
    # coordinates strictly decreasing, ranks w - h in the window, weight
    # sum(w + h - 1) -- the chains kernels.count_rank_bounded_partitions
    # counts, whose sweep hands over the admissible pairs of the box and the
    # packed series f(w, h) of the chains each heads.  A box bounds only the
    # first pair.  With ``exact`` only weight-top members are built, and a
    # pair is entered at budget b only if limb b of f(w, h) is nonzero.
    hi = params.max_rank
    _, _, bits, pairs = kernels._pair_sweep(
        max_part, max_length, params.min_rank, hi, top
    )
    limb = (1 << bits) - 1

    def children(head, budget):
        # the pairs strictly below head, or every pair of the box at the root
        w_head, h_head = head or (len(pairs), top + 1)
        for w in range(min(w_head - 1, budget, h_head - 1 + hi), 0, -1):
            for h, chains in pairs[w]:
                if h >= h_head or w + h - 1 > budget:
                    break
                if not exact or (chains >> (bits * budget)) & limb:
                    yield (w, h), budget - w - h + 1

    buckets = _chain_buckets(top, exact, children, _rows_from_pairs)
    for bucket in buckets:
        bucket.sort(reverse=True)
    return buckets


def _chain_buckets(top, exact, children, build) -> list[list]:
    # Depth-first descent over chains of nodes, bucketing build(chain) by
    # weight 0..top in pre-order; children(head, budget) yields each node that
    # may follow ``head`` (None at the root) with the budget left after it.
    # With ``exact`` only weight-top chains are built.  The recursion is a
    # module function, so no closure holds the buckets in a reference cycle.
    buckets: list[list] = [[] for _ in range(top + 1)]
    if top == 0 or not exact:
        buckets[0].append(())
    _descend(children, build, exact, buckets, [], None, top)
    return buckets


def _descend(children, build, exact, buckets, chain, head, budget) -> None:
    for node, rest in children(head, budget):
        chain.append(node)
        if not (exact and rest):
            buckets[len(buckets) - 1 - rest].append(build(chain))
        if rest:
            _descend(children, build, exact, buckets, chain, node, rest)
        chain.pop()


def rank_window_counts(params: IdentityParams, max_weight: int) -> list[int]:
    """Per-weight counts of rank-window partitions, via the counting kernel."""
    return kernels.count_rank_bounded_partitions(
        max_weight, max_weight, params.min_rank, params.max_rank, cap=max_weight
    )


def _require_weight(value: int, name: str = "max_weight") -> None:
    # Exact ints only: a bool would otherwise count as weight 0 or 1.
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _admissible_colors(params: IdentityParams, max_size: int) -> list[list[int]]:
    # Colors a part of each size 0..max_size may carry under conditions (i)
    # and (iii), ascending.
    return [
        [
            color
            for color in range(1, params.color_count + 1)
            if _size_ok(size, color, params) and _top_color_ok(size, color, params)
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
    heads' series shifted by s.
    """
    _require_weight(max_weight)
    start = min(max_size, max_weight)
    colors_of = _admissible_colors(params, start)
    headed: dict[ColoredPartition, list[int]] = {(): [1] + [0] * max_weight}
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


def colored_members_up_to(
    params: IdentityParams, max_weight: int, max_size: int | None = None
) -> list[list[ColoredPartition]]:
    """Condition-respecting colored partitions bucketed by weight 0..max_weight.

    Generated directly from the membership conditions — independent of the
    rank-window encoding, which makes the two routes cross-checkable.  A
    descent over (size, color) parts, largest first; condition (ii) forces a
    gap of at least 2, so the budget prunes fast.  ``max_size`` bounds the
    largest part.
    """
    _require_weight(max_weight)
    start = max_weight if max_size is None else min(max_size, max_weight)
    colors_of = _admissible_colors(params, start)

    def children(head, budget):
        # the parts that may follow head, or every admissible part at the root
        size_bound = start if head is None else head[0] - 2
        for size in range(min(size_bound, budget), 0, -1):
            for color in colors_of[size]:
                if head is None or _gap_ok(*head, size, color, params):
                    yield (size, color), budget - size

    return _chain_buckets(max_weight, False, children, tuple)


def colored_members(params: IdentityParams, n: int) -> list[ColoredPartition]:
    """Condition-respecting colored partitions of weight exactly n."""
    return colored_members_up_to(params, n)[n]


def boxed_members(
    params: IdentityParams, n: int, max_part: int, max_length: int
) -> list[Partition]:
    """Rank-window members of n fitting max_length rows by max_part columns."""
    _require_weight(n, "n")
    # a non-int side falls through to the kernel, which refuses it
    if type(max_part) is type(max_length) is int and min(max_part, max_length) < 0:
        return []
    return _window_chains(params, n, True, max_part, max_length)[n]


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
    no value repeats k or more times), and fewer than ``residue`` ones.
    """
    _require_weight(n, "n")
    return [
        p
        for p in partitions_of(n)
        if p.count(1) < residue and all(a - b >= 2 for a, b in zip(p, p[half_modulus - 1 :]))
    ]


def gap2_members(n: int, min_part: int = 1) -> list[Partition]:
    """Partitions of n whose parts decrease by at least 2, parts >= min_part."""
    _require_weight(n, "n")
    return [
        p
        for p in partitions_of(n)
        if (not p or p[-1] >= min_part) and all(a - b >= 2 for a, b in zip(p, p[1:]))
    ]


def product_parts_members(params: IdentityParams, n: int) -> list[Partition]:
    """Partitions of n into parts avoiding residues 0 and +-r mod the modulus."""
    _require_weight(n, "n")
    m = params.modulus
    excluded = {0, params.residue % m, (m - params.residue) % m}
    return [
        p for p in partitions_of(n) if all(part % m not in excluded for part in p)
    ]


@dataclass(frozen=True)
class FamilySpec:
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
