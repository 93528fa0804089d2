"""Brute-force counting kernel; the test oracle for the Frobenius-pair DP.

Counts partitions inside a box whose successive ranks stay in a window, by
brute-force descent over non-increasing part prefixes.  Every prefix is itself
a partition, so each node of the search tree is tested and tallied once.
"""

from __future__ import annotations

__all__ = ["count_rank_bounded_partitions"]


def count_rank_bounded_partitions(
    max_part: int,
    max_length: int,
    rank_lo: int,
    rank_hi: int,
    cap: int | None = None,
) -> list[int]:
    """Per-weight counts of rank-window partitions in a box.

    Returns ``counts`` of length W+1 with W = min(max_part * max_length, cap):
    ``counts[w]`` is the number of partitions of w with at most ``max_length``
    parts, each at most ``max_part``, whose successive ranks all lie in
    [rank_lo, rank_hi].

    Appending a part never raises an existing rank, so once a rank falls below
    the window the whole subtree is dead and gets pruned; ranks above the
    window may still sink back, so those nodes descend uncounted.
    """
    if max_part < 0 or max_length < 0:
        raise ValueError("box sides must be nonnegative")
    box = max_part * max_length
    top = box if cap is None else min(cap, box)
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    counts = [0] * (top + 1)
    counts[0] = 1  # the empty partition has no ranks to violate
    if top == 0:
        return counts
    parts: list[int] = []

    def rank_status() -> int:
        # 1: all ranks inside the window; 0: none below but some above;
        # -1: some rank below the window (permanent defect).
        length = len(parts)
        ptr = length
        ok = 1
        i = 1
        while i <= length and parts[i - 1] >= i:
            while parts[ptr - 1] < i:
                ptr -= 1
            rank = parts[i - 1] - ptr
            if rank < rank_lo:
                return -1
            if rank > rank_hi:
                ok = 0
            i += 1
        return ok

    def descend(bound: int, weight: int) -> None:
        for x in range(min(bound, top - weight), 0, -1):
            parts.append(x)
            status = rank_status()
            if status >= 0:
                w = weight + x
                if status == 1:
                    counts[w] += 1
                if len(parts) < max_length and w < top:
                    descend(x, w)
            parts.pop()

    descend(max_part, 0)
    return counts
