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
1 + sum of f over the box, truncated at the top weight.

Every series is packed into one Python int (Kronecker substitution q = 2^B):
coefficient t sits in bits [t*B, (t+1)*B), so adding two series is one int
addition and multiplying by q^s is a shift by s*B bits.  No limb ever carries
into the next: each coefficient of every series and partial sum the sweep
forms counts distinct partitions of weight t <= top, so it is at most
p(t) <= p(top) (p is nondecreasing: adding a part 1 maps the partitions of
t into those of t + 1 one to one), and p(top) < 2^B with B =
``_limb_bits(top)``, the bit length of p(top).  No narrower width serves
every window and box of top weight top: the open window in a top-by-top box
counts every partition, so its coefficient top is p(top) itself.  The
partition numbers come from one table per process, kept by Euler's
pentagonal recurrence (:func:`_partition_number`).  The sweep reads only
p(top)'s bit length; the table's second reader, ``series.bosonic_sum``,
reads p(0..order) as the values the theta series is multiplied by.  The
counts are unpacked once, at the end, as exact Python ints at every size; a
brute-force descent in ``tests/test_kernels.py`` is the oracle they are
compared against.  The counts hold only the running column sums.  The
per-pair series f(w, h) are kept for one reader, the exact-weight child
table in ``families`` (``_exact_root``), whose descent they steer: a pair
heads a chain of weight b exactly when limb b of f(w, h), ``(f >> (B * b))
& (2^B - 1)``, is nonzero.

The unpack and width helpers below are shared with the packed finitized
sides in ``series`` and the head and frequency DPs in ``families``, under
one rule: each DP states beside it a bound on the coefficients it decodes,
and its width B is the bit length of that bound, plus one sign bit for
balanced digits (:func:`_signed_bits`).  Each DP builds its packed series
from 1 by sums, products and shifts, so none packs a coefficient list.
Evaluation at q = 2^B is a ring map, so those may carry between limbs
freely; only a series that is unpacked, or truncated by a mask, needs every
coefficient inside the decode range, [0, 2^B) for :func:`_unpack` and
(-2^(B-1), 2^(B-1)) for :func:`_unpack_signed`.  Unpacking takes any width
B >= 1: a series of at most ``_SPLIT`` limbs in one loop of one shift and
mask per limb, a longer one split in halves.
"""

from __future__ import annotations

from .partitions import _require_count, _require_int

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
    [rank_lo, rank_hi].  Every argument must be an int (``cap`` may be None),
    and neither box side nor ``cap`` may be negative; a bad argument raises
    ValueError under its own name.
    """
    total, top, bits, _ = _pair_sweep(max_part, max_length, rank_lo, rank_hi, cap, keep=False)
    return _unpack(total, bits, top + 1)


def _limb_bits(top: int) -> int:
    # The least B with p(t) < 2^B for every t <= top: the bit length of
    # p(top), p being nondecreasing.
    return _partition_number(top).bit_length()


# p(0), p(1), ...: a prefix of the partition numbers, grown on demand.
_partition_numbers = [1]


def _partition_number(n: int) -> int:
    # p(n) by Euler's pentagonal recurrence (Andrews, The Theory of
    # Partitions, ch. 1): p(m) is the sum over k >= 1 of (-1)^(k+1) *
    # (p(m - g_k) + p(m - g_k - k)), g_k = k(3k - 1)/2.  Extends a copy and
    # swaps it in, so the shared table is always a correct prefix.
    global _partition_numbers
    numbers = _partition_numbers
    if n < len(numbers):
        return numbers[n]
    numbers = numbers.copy()
    for m in range(len(numbers), n + 1):
        total, k, g = 0, 1, 1
        while g <= m:
            term = numbers[m - g] + (numbers[m - g - k] if g + k <= m else 0)
            total += term if k & 1 else -term
            k += 1
            g += 3 * k - 2
        numbers.append(total)
    _partition_numbers = numbers
    return numbers[n]


def _signed_bits(bound: int) -> int:
    # The least width whose balanced digits hold every |c| <= bound: the
    # bit length of bound plus one sign bit, so that 2^(B-1) > bound.
    return bound.bit_length() + 1


# The most limbs _unpack reads in one loop; a longer series is split in
# halves, so each int operation acts on a piece of about its own size.  At
# least 46, so the counts at n = 45 unpack in one loop.
_SPLIT = 48


def _unpack(packed: int, bits: int, count: int) -> list[int]:
    """The low ``count`` limbs of a nonnegative int, each in [0, 2^bits).

    On a packed series whose coefficients 0..count-1 all lie in [0, 2^bits),
    those coefficients; limbs from ``count`` on are ignored.
    """
    if count > _SPLIT:
        half = count // 2
        low = packed & ((1 << (bits * half)) - 1)
        return _unpack(low, bits, half) + _unpack(packed >> (bits * half), bits, count - half)
    limb = (1 << bits) - 1
    return [(packed >> (bits * t)) & limb for t in range(count)]


def _unpack_signed(packed: int, bits: int) -> list[int]:
    """Every coefficient of a packed polynomial, each in (-2^(bits-1), 2^(bits-1)).

    Balanced digits: adding 2^(bits-1) to every limb makes each one a digit
    in (0, 2^bits) with no carry, which :func:`_unpack` reads.  A nonzero
    top coefficient at degree d puts |packed| above 2^(bits*d - 1), so
    |packed|.bit_length() // bits + 1 limbs cover every degree (with at
    most one zero limb above it).
    """
    count = abs(packed).bit_length() // bits + 1
    half = 1 << (bits - 1)
    # half in each of count limbs: half * (2^(bits*count) - 1) / (2^bits - 1)
    offset = half * ((1 << (bits * count)) - 1) // ((1 << bits) - 1)
    return [d - half for d in _unpack(packed + offset, bits, count)]


def _pair_sweep(max_part, max_length, rank_lo, rank_hi, cap=None, *, keep):
    # (total, top, B, pairs): the packed box series 1 + sum of f, its top
    # weight, the limb width B, and pairs, None unless ``keep``, in which
    # pairs[w] = [(h, f(w, h)), ...] for each width w from 0 to at least the
    # widest admissible pair's, admissible pairs only, in ascending h; every
    # series is packed in limbs 0..top.  Without ``keep`` the sweep holds
    # only its column sums, one series per height, not one per pair.
    _require_count(max_part, "max_part")
    _require_count(max_length, "max_length")
    _require_int(rank_lo, "rank_lo")
    _require_int(rank_hi, "rank_hi")
    _require_count(0 if cap is None else cap, "cap")  # ``cap or 0`` would let False through
    box = max_part * max_length
    top = box if cap is None else min(cap, box)
    bits = _limb_bits(top)
    mask = (1 << (bits * (top + 1))) - 1
    # below[h] = sum of f(w', h) over the rows w' already done; h is 1-based.
    heights = min(max_length, top)
    below = [0] * (heights + 1)
    # A row w holds a pair only if h_lo <= h_hi below, so only if
    # w - rank_hi <= heights and 2w <= top + 1 + rank_hi: wider rows are
    # left unswept.
    last = min(max_part, top, heights + rank_hi, (top + 1 + rank_hi) // 2)
    pairs: list[list[tuple[int, int]]] | None = [[]] if keep else None
    # settled = 1 (the empty chain) + sum of below[h] over h < h_lo: h_lo
    # never falls as w grows, so those columns take no more pairs and each
    # joins the sum once.
    settled, h_settled = 1, 1
    for w in range(1, last + 1):
        h_lo = w - rank_hi if w - rank_hi > 1 else 1
        h_hi = w - rank_lo if w - rank_lo < heights else heights
        if h_hi > top + 1 - w:
            h_hi = top + 1 - w
        if keep:
            pairs.append(row := [])
        for h in range(h_settled, h_lo):
            settled += below[h]
        h_settled = h_lo
        # run = 1 + sum of f(w', h') over w' < w and h' < h, kept as h
        # climbs; shift = B * (w + h - 1), the weight of the pair (w, h).
        run, shift = settled, bits * (w + h_lo - 1)
        for h in range(h_lo, h_hi + 1):
            # q^(w+h-1) * run, truncated past the top weight
            cell = (run << shift) & mask
            run += below[h]
            below[h] += cell
            if keep:
                row.append((h, cell))
            shift += bits
    return 1 + sum(below), top, bits, pairs
