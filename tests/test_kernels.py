"""Counting kernel: the Frobenius-pair DP against the brute-force oracle, edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorpartitions import IdentityParams, kernels
from colorpartitions.families import frequency_counts
from colorpartitions.partitions import partitions_of, successive_ranks
from colorpartitions.series import partition_series


def pure_counts(max_part, max_length, rank_lo, rank_hi, cap=None):
    """The oracle: per-weight rank-window counts in a box, by brute-force descent.

    Returns ``counts`` of length W+1 with W = min(max_part * max_length, cap):
    ``counts[w]`` is the number of partitions of w with at most ``max_length``
    parts, each at most ``max_part``, whose successive ranks all lie in
    [rank_lo, rank_hi].  The descent runs over non-increasing part prefixes;
    every prefix is itself a partition, so each node is tested and tallied
    once.

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
    parts = []

    def rank_status():
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

    def descend(bound, weight):
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


def brute_counts(max_part, max_length, rank_lo, rank_hi, top):
    counts = [0] * (top + 1)
    for w in range(top + 1):
        for p in partitions_of(w, max_part=max_part):
            if len(p) > max_length:
                continue
            if all(rank_lo <= r <= rank_hi for r in successive_ranks(p)):
                counts[w] += 1
    return counts


def test_pure_kernel_matches_brute_force():
    for box, lo, hi in ((6, 1, 4), (5, -1, 3), (7, 0, 1), (4, -2, -1)):
        top = min(box * box, 16)
        assert pure_counts(box, box, lo, hi, top) == brute_counts(box, box, lo, hi, top)


def test_pure_kernel_ragged_boxes():
    for u, v in ((7, 3), (2, 9), (1, 1), (12, 2)):
        top = u * v
        assert pure_counts(u, v, -1, 3, top) == brute_counts(u, v, -1, 3, top)


def test_empty_boxes():
    assert pure_counts(0, 5, 0, 3) == [1]
    assert pure_counts(5, 0, 0, 3) == [1]
    assert pure_counts(3, 3, 0, 3, cap=0) == [1]


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pure_counts(-1, 3, 0, 1)
    with pytest.raises(ValueError):
        kernels.count_rank_bounded_partitions(3, -1, 0, 1)
    with pytest.raises(ValueError):
        kernels.count_rank_bounded_partitions(3, 3, 0, 1, cap=-2)


def test_kernel_rejects_non_int_arguments():
    # integers only, in every position: a bool would count as a 0 or 1 side
    good = (3, 3, 0, 1, 4)
    for position, name in enumerate(("max_part", "max_length", "rank_lo", "rank_hi", "cap")):
        for bad in (True, 2.0, "3"):
            arguments = list(good)
            arguments[position] = bad
            with pytest.raises(ValueError) as caught:
                kernels.count_rank_bounded_partitions(*arguments)
            assert str(caught.value) == f"{name} must be an int, got {bad!r}"


def test_limb_width_bounds_partition_numbers():
    # the packed sweep is exact only while no limb carries: p(t) < 2^B(t);
    # and B(t) is tight, 2^(B-1) <= p(t), so a drift back to a loose width shows
    numbers = partition_series(1000).coefficients
    for t, p_t in enumerate(numbers):
        bits = kernels._limb_bits(t)
        assert 1 << (bits - 1) <= p_t < 1 << bits, t


def test_counts_exact_where_the_limb_width_steps_up():
    # the first weight at each new bit length of p(n) leaves its sweep the
    # least headroom (coefficient n is p(n) >= 2^(B-1)), so a carry shows there
    numbers = partition_series(300).coefficients
    steps = [n for n in range(1, 301) if numbers[n].bit_length() > numbers[n - 1].bit_length()]
    assert len(steps) > 30
    for n in steps:
        counts = kernels.count_rank_bounded_partitions(n, n, -n, n, cap=n)
        assert counts == list(numbers[: n + 1]), n


def _pack(coefficients, bits):
    # the series at q = 2^bits: sum of c_t * 2^(bits * t), any ints c_t
    return sum(c << (bits * t) for t, c in enumerate(coefficients))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(1 << 200), 1 << 200) | st.integers(0, (1 << 64) - 1), max_size=30))
def test_packed_coefficients_round_trip(coefficients):
    # any ints, negative or past one word: balanced digits at the width
    # their bound gives decode the series at q = 2^B
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    bits = kernels._signed_bits(max(map(abs, coefficients), default=0))
    packed = _pack(coefficients, bits)
    decoded = kernels._unpack_signed(packed, bits)
    assert decoded[: len(coefficients)] == coefficients
    assert not any(decoded[len(coefficients) :])
    if min(coefficients, default=0) >= 0:
        assert kernels._unpack(packed, bits, len(coefficients)) == coefficients


# Any width, whole words included, and lengths on both sides of the split.
_WIDTHS = st.integers(1, 200) | st.sampled_from((64, 128, 192))
_SPLIT = kernels._SPLIT
_LENGTHS = st.integers(0, 300) | st.sampled_from((_SPLIT, _SPLIT + 1, 2 * _SPLIT + 1))


def _digits(rng, count, lo, hi):
    # count digits in [lo, hi], the extremes as often as the rest
    return [rng.choice((lo, hi, rng.randint(lo, hi))) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(_WIDTHS, _LENGTHS, st.randoms(use_true_random=False))
def test_pack_round_trips_at_any_width_past_the_split(bits, count, rng):
    # unsigned digits in [0, 2^B) through _unpack, balanced ones in
    # (-2^(B-1), 2^(B-1)) through _unpack_signed, which reads every limb up
    # to the top nonzero one and at most one zero limb above it
    unsigned = _digits(rng, count, 0, (1 << bits) - 1)
    packed = _pack(unsigned, bits)
    assert kernels._unpack(packed, bits, count) == unsigned
    half = 1 << (bits - 1)
    signed = _digits(rng, count, 1 - half, half - 1)
    packed = _pack(signed, bits)
    decoded = kernels._unpack_signed(packed, bits)
    degree = max((t for t, c in enumerate(signed) if c), default=0)
    assert degree < len(decoded) <= degree + 2
    size = max(count, len(decoded))
    assert decoded + [0] * (size - len(decoded)) == signed + [0] * (size - count)


@settings(max_examples=200, deadline=None)
@given(_WIDTHS, _LENGTHS, st.integers(1, 1 << 1000), st.randoms(use_true_random=False))
def test_unpack_reads_the_low_limbs_of_any_int(bits, count, high, rng):
    # limbs from count on are ignored, whatever they hold
    low = _digits(rng, count, 0, (1 << bits) - 1)
    packed = _pack(low, bits) + (high << (bits * count))
    assert kernels._unpack(packed, bits, count) == low


@pytest.mark.parametrize("n", (20, 30, 45))
def test_one_bit_below_the_width_fails(monkeypatch, n):
    # The sweep's open window in an n-by-n box and Gordon's condition at
    # k = n + 1, r = k both count every partition, so coefficient n is
    # p(n) >= 2^(B-1): at one bit below _limb_bits' width it must carry.
    numbers = list(partition_series(n).coefficients)
    k = n + 1
    routes = (
        lambda: kernels.count_rank_bounded_partitions(n, n, -n, n, cap=n),
        lambda: frequency_counts(IdentityParams(2 * k + 1, k), n),
    )
    assert [route() for route in routes] == [numbers, numbers]
    limb_bits = kernels._limb_bits
    monkeypatch.setattr(kernels, "_limb_bits", lambda top: limb_bits(top) - 1)
    for route in routes:
        assert route() != numbers


def test_inverted_window_counts_nothing():
    counts = pure_counts(6, 6, 3, 1, 12)
    assert counts[0] == 1
    assert sum(counts[1:]) == 0


def test_dp_matches_pure_on_grid():
    for u in range(0, 7):
        for v in range(0, 7):
            for lo in range(-3, 3):
                for hi in range(lo - 2, lo + 5):
                    top = min(u * v, 14)
                    assert kernels.count_rank_bounded_partitions(
                        u, v, lo, hi, top
                    ) == pure_counts(u, v, lo, hi, top)


def test_sweep_lists_every_admissible_pair():
    # pairs[w] lists each pair (w, h) of the box whose rank w - h lies in the
    # window and whose weight w + h - 1 fits the top, in ascending h; the
    # rows the sweep leaves out hold no such pair
    for u in range(0, 8):
        for v in range(0, 8):
            for lo in range(-4, 5):
                for hi in range(lo - 2, lo + 6):
                    for cap in (None, 0, 5, 11):
                        _, top, _, pairs = kernels._pair_sweep(u, v, lo, hi, cap, keep=True)
                        listed = [(w, h) for w, row in enumerate(pairs) for h, _ in row]
                        assert listed == [
                            (w, h)
                            for w in range(1, u + 1)
                            for h in range(1, v + 1)
                            if lo <= w - h <= hi and w + h - 1 <= top
                        ], (u, v, lo, hi, cap)


@settings(max_examples=60, deadline=None)
@given(
    u=st.integers(0, 10),
    v=st.integers(0, 10),
    lo=st.integers(-6, 6),
    span=st.integers(-3, 8),
    cap=st.integers(0, 40) | st.none(),
)
def test_dp_matches_pure_random(u, v, lo, span, cap):
    assert kernels.count_rank_bounded_partitions(
        u, v, lo, lo + span, cap
    ) == pure_counts(u, v, lo, lo + span, cap)


def test_weights_past_400_are_exact():
    # one row: every weight admits exactly the single-part partition (rank >= 0)
    counts = kernels.count_rank_bounded_partitions(401, 1, 0, 401)
    assert counts == [1] * 402


def test_open_window_counts_every_partition():
    # a size brute force cannot reach, and the tight case for the limb width:
    # every coefficient is p(n), for every n <= 300
    counts = kernels.count_rank_bounded_partitions(300, 300, -300, 300, cap=300)
    assert counts == list(partition_series(300).coefficients)


def test_dispatched_counts_match_pure():
    for u, v, lo, hi in ((8, 8, 1, 4), (10, 5, -1, 3), (6, 9, 0, 1)):
        assert kernels.count_rank_bounded_partitions(u, v, lo, hi) == pure_counts(
            u, v, lo, hi
        )
    # capped windows M=7 r=1, M=8 r=3, M=9 r=4 and the 24x18 box of M=5 r=2
    for u, v, lo, hi, cap in (
        (30, 30, 1, 4, 30),
        (40, 40, -1, 3, 40),
        (45, 45, -2, 3, 45),
        (24, 18, 0, 1, 42),
    ):
        assert kernels.count_rank_bounded_partitions(
            u, v, lo, hi, cap
        ) == pure_counts(u, v, lo, hi, cap)


def test_counts_agree_with_unrestricted_partitions():
    # window wide open and box huge: counts collapse to the partition numbers
    classical = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    counts = kernels.count_rank_bounded_partitions(10, 10, -10, 10, cap=10)
    assert counts == classical
