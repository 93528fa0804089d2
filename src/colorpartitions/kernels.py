"""The rank-window counting kernel: a dynamic programme over Frobenius pairs.

A partition with Durfee square d is the chain of its d diagonal pairs
(w_i, h_i) = (lambda_i - i + 1, lambda'_i - i + 1), both coordinates strictly
decreasing, with successive rank r_i = w_i - h_i and weight sum(w_i + h_i - 1)
(Andrews, Baxter, Bressoud, Burge, Forrester and Viennot, "Partitions with
prescribed hooklength differences", Europ. J. Combin. 8, 1987).  The box
bounds only the first pair: w_1 <= max_part and h_1 <= max_length.

So with f(w, h) the series of admissible chains headed by (w, h),

    f(w, h) = q^(w+h-1) * (1 + sum_{w' < w, h' < h} f(w', h'))

when rank_lo <= w - h <= rank_hi and 0 otherwise, and the box count is
1 + sum of f over the box, truncated at the top weight.  Counts are exact
Python ints at every size; ``_pure`` is the brute-force oracle the tests
compare against.  The per-pair series f(w, h) also steer the member descent
in ``families``: a pair heads a chain of weight b exactly when f(w, h)[b] != 0.
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
    """
    return _pair_sweep(max_part, max_length, rank_lo, rank_hi, cap)[0]


def _pair_sweep(max_part, max_length, rank_lo, rank_hi, cap=None):
    # The counts above, plus pairs[w] = [(h, f(w, h)), ...] for each width
    # w = 0..min(max_part, W), admissible pairs only, in ascending h; every
    # series f(w, h) has length W+1.
    if max_part < 0 or max_length < 0:
        raise ValueError("box sides must be nonnegative")
    box = max_part * max_length
    top = box if cap is None else min(cap, box)
    if top < 0:
        raise ValueError("cap must be nonnegative")
    size = top + 1
    zero = [0] * size
    # below[h] = sum of f(w', h) over the rows w' already done; h is 1-based.
    heights = min(max_length, top)
    below = [zero] * (heights + 1)
    pairs: list[list[tuple[int, list[int]]]] = [[]]
    # settled = sum of below[h] over h < h_lo: h_lo never falls as w grows,
    # so those columns take no more pairs and each joins the sum once.
    settled, h_settled = zero, 1
    for w in range(1, min(max_part, top) + 1):
        h_lo = max(1, w - rank_hi)
        h_hi = min(heights, w - rank_lo, top + 1 - w)
        pairs.append([])
        if h_lo > h_hi:
            continue
        for h in range(h_settled, h_lo):
            settled = list(map(int.__add__, settled, below[h]))
        h_settled = h_lo
        # run = sum of f(w', h') over w' < w and h' < h, kept as h climbs.
        run = settled
        for h in range(h_lo, h_hi + 1):
            shift = w + h - 1
            # f has no constant term, so run[0] == 0 and the 1 takes its place.
            cell = [0] * shift + [1] + run[1 : size - shift]
            run = list(map(int.__add__, run, below[h]))
            below[h] = list(map(int.__add__, below[h], cell))
            pairs[w].append((h, cell))
    total = [1] + [0] * top
    for column in below[1:]:
        total = list(map(int.__add__, total, column))
    return total, pairs
