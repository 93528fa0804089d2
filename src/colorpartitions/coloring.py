"""Rank-window partition families and their colored-partition encodings.

For a modulus M and residue class r (0 < r <= M/2) the admissible rank window
is [2-r, M-r-2].  Partitions whose successive ranks all stay inside the window
are encoded as partitions whose parts are the angle lengths, each carrying one
of floor(M/2)-1 colors derived from its rank.  The encoding is reversible and
lands exactly on the colored partitions passing the difference conditions
checked here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .partitions import Partition, _require_int, _rows_from_pairs, angles

ColoredPartition = tuple[tuple[int, int], ...]

__all__ = [
    "ColoredPartition",
    "IdentityParams",
    "RankWindowError",
    "ConditionCheck",
    "validate_colored",
    "color_map",
    "rank_from_color",
    "inverse_map",
    "check_conditions",
    "check_box_condition",
    "alt_color_map",
    "format_colored",
]


class RankWindowError(ValueError):
    """A successive rank fell outside the admissible window.

    ``index`` is the 1-based position of the offending rank.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class IdentityParams:
    """Modulus/residue pair selecting one identity of the family.

    Immutable; equality and hashing read (modulus, residue).  The derived
    values are attributes set once.  ``has_product_form``: the avoided-residue
    product is the closed form for the counts only when 2r < M; at 2r = M the
    residues r and -r coincide mod M, the theta quotient keeps a leftover
    numerator factor (1 - q^(M/2))(1 - q^(3M/2))..., and the plain product
    over-counts (first at weight r).  The window/colored/theta/multisum
    equalities still hold there; only the product leg drops out.
    """

    __slots__ = ("modulus", "residue", "half_modulus", "is_odd", "color_count",
                 "has_product_form", "min_rank", "max_rank")
    __match_args__ = ("modulus", "residue")

    def __init__(self, modulus: int, residue: int):
        _require_int(modulus, "modulus")
        _require_int(residue, "residue")
        if modulus < 3:
            raise ValueError(f"modulus must be >= 3, got {modulus}")
        if not 0 < residue * 2 <= modulus:
            raise ValueError(
                f"residue must satisfy 0 < r <= M/2, got r={residue} for M={modulus}"
            )
        half, set_ = modulus // 2, object.__setattr__
        set_(self, "modulus", modulus)
        set_(self, "residue", residue)
        set_(self, "half_modulus", half)
        set_(self, "is_odd", modulus % 2 == 1)
        set_(self, "color_count", half - 1)  # floor(M/2) - 1 colors
        set_(self, "has_product_form", 2 * residue < modulus)
        set_(self, "min_rank", 2 - residue)
        set_(self, "max_rank", modulus - residue - 2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.modulus, self.residue) == (other.modulus, other.residue)

    def __hash__(self) -> int:
        return hash((self.modulus, self.residue))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(modulus={self.modulus!r}, residue={self.residue!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickling by default sets each slot, which __setattr__ refuses
        return type(self), (self.modulus, self.residue)

    def rank_in_window(self, rank: int) -> bool:
        return self.min_rank <= rank <= self.max_rank


def validate_colored(colored: ColoredPartition) -> None:
    """Structural check: int pairs, positive sizes, non-increasing, ties by color.

    Raises ValueError on violation; every part's types and size are checked
    before the order.  A size or color must be an int exactly (a bool, a
    float or a string is refused).  Color values are not range-checked here
    (the alternative coloring legitimately emits 0).
    """
    for i, (size, color) in enumerate(colored, start=1):
        if type(size) is not int or type(color) is not int:
            raise ValueError(
                f"colored part {i} must be an (int size, int color) pair, "
                f"got {(size, color)!r}"
            )
        if size < 1:
            raise ValueError(f"colored part sizes must be positive, got {size}")
    for i in range(1, len(colored)):
        (size_a, color_a), (size_b, color_b) = colored[i - 1], colored[i]
        if size_a < size_b:
            raise ValueError(f"colored part sizes must be non-increasing: {colored}")
        if size_a == size_b and color_a > color_b:
            raise ValueError(
                f"equal-size parts must carry non-decreasing colors: {colored}"
            )


def _outside_window(rank: int, index: int, params: IdentityParams) -> RankWindowError:
    return RankWindowError(
        f"rank {rank} at position {index} outside [{params.min_rank}, {params.max_rank}]",
        index=index,
    )


def color_map(parts: Partition, params: IdentityParams) -> ColoredPartition:
    """Encode a rank-window member as a colored partition of the same weight.

    Part i is the i-th angle length; its color is (rank+r-1)/2 when the length
    shares the residue's parity and (rank+r)/2 otherwise.  A rank and its
    angle length always have opposite parities, so rank + r is odd in the
    first case and even in the second: both are floor((rank+r)/2), at least
    1 since rank + r >= 2 inside the window.  Raises RankWindowError at the
    first rank that leaves the window.

    One walk down the Durfee diagonal: a pointer moved up from the last row
    finds each column height inside the loop over its row.
    """
    lo, hi, r = params.min_rank, params.max_rank, params.residue
    encoded = []
    height = len(parts)
    i = 0
    for row in parts:
        if row <= i:
            break
        while parts[height - 1] <= i:
            height -= 1
        # Diagonal cell i: rank = row - column, angle length = row + column - 2i - 1.
        rank = row - height
        if rank < lo or rank > hi:
            raise _outside_window(rank, i + 1, params)
        encoded.append((row + height - 2 * i - 1, (rank + r) >> 1))
        i += 1
    return tuple(encoded)


def rank_from_color(length: int, color: int, params: IdentityParams) -> int:
    """Rank encoded by a colored part: 2c-r+1 on shared parity, else 2c-r."""
    width, height = _decode_part(length, color, params.residue)
    return width - height


class ConditionCheck(NamedTuple):
    """Outcome of the membership conditions, with the first violation."""

    ok: bool
    violation: str | None = None  # "i" | "ii" | "iii"
    index: int | None = None  # 1-based part where the check failed

    def __bool__(self) -> bool:
        return self.ok


# Every passing check is this one instance; it is a tuple, so sharing is safe.
_PASSED = ConditionCheck(True)


def check_conditions(colored: ColoredPartition, params: IdentityParams) -> ConditionCheck:
    """Test the three membership conditions, reporting the first failure.

    (i)   each part exceeds |rank| it encodes (sizes big enough for their color);
    (ii)  consecutive parts differ by at least 2 plus the color-dependent spread;
    (iii) for even modulus, the top color forbids sizes sharing the residue parity.

    Structural defects and out-of-range colors raise ValueError instead of
    returning a failed check; a color out of range anywhere outranks every
    violation, and a failure of (i) is reported before one of (ii), and (ii)
    before (iii), wherever each occurs.  One pass tests (i) and (ii) and finds
    the top rank the colors encode; the color range and (iii) hold exactly
    when it is at most M - r - 2, and only a failure walks the parts again.
    """
    validate_colored(colored)
    failed_i = failed_ii = 0
    # top: the largest rank the colors encode, infinite for a color below 1.
    # Color c encodes 2c - r + 1 on a part sharing the residue's parity, else
    # 2c - r; at M = 2k, color k - 1 on such a part encodes M - r - 1, which
    # is what (iii) forbids.
    top = 1 - params.residue
    prev_size = prev_color = 0
    for i, (size, color) in enumerate(colored, start=1):
        rank = rank_from_color(size, color, params)
        if not (failed_i or _size_ok(size, rank)):
            failed_i = i
        if i > 1 and not (failed_ii or _gap_ok(prev_size, prev_color, size, color, params)):
            failed_ii = i - 1
        top = max(top, rank if color >= 1 else math.inf)
        prev_size, prev_color = size, color
    failed_iii = 0
    if not _rank_ok(top, params):  # a color out of range, or else (iii) fails
        count = params.color_count
        for i, (size, color) in enumerate(colored, start=1):
            if not 1 <= color <= count:
                raise ValueError(
                    f"color {color} at part {i} outside 1..{count} for modulus {params.modulus}"
                )
            if not (failed_iii or _rank_ok(rank_from_color(size, color, params), params)):
                failed_iii = i
    for violation, index in (("i", failed_i), ("ii", failed_ii), ("iii", failed_iii)):
        if index:
            return ConditionCheck(False, violation, index)
    return _PASSED


# Conditions (i), (ii) and (iii), each defined once here; check_conditions
# reads the color range off _rank_ok too.  The colored enumeration, the
# head-count DP and check_conditions all use these, with the rank a part
# encodes read by rank_from_color from the pair _decode_part gives; color_map
# does not, so encoding rank-window members still exposes a predicate that
# is too loose (the families differ) or too strict (the decode refuses).
# "Sharing the residue's parity" is (x - r) % 2 == 0, tested by (ii); the
# decode's floor division holds the same case split for (i) and (iii).


def _size_ok(size: int, rank: int) -> bool:
    # (i): the part exceeds |rank| of the rank it encodes (rank_from_color).
    return size > abs(rank)


def _gap_ok(
    size_a: int, color_a: int, size_b: int, color_b: int, params: IdentityParams
) -> bool:
    # (ii): part b may follow part a; the gap is at least 2 plus the spread.
    spread = 2 * (color_a - color_b)
    if (size_a - size_b) % 2 == 0:
        required = 2 + abs(spread)
    elif (size_b - params.residue) % 2 == 0:
        required = 2 + abs(spread - 1)
    else:
        required = 2 + abs(spread + 1)
    return size_a - size_b >= required


def _rank_ok(rank: int, params: IdentityParams) -> bool:
    # (iii) with the color range: a part encodes a rank of at most M - r - 2.
    return rank <= params.max_rank


def inverse_map(colored: ColoredPartition, params: IdentityParams) -> Partition:
    """Decode a colored partition back to its rank-window member.

    Rejects (ValueError) input failing the membership conditions.
    """
    check = check_conditions(colored, params)
    if not check:
        raise ValueError(
            f"not decodable: condition ({check.violation}) fails at part {check.index}"
        )
    # (i)-(iii) make the decoded widths and heights strictly decreasing and
    # positive, as from_angles would check.
    r = params.residue
    return _rows_from_pairs([_decode_part(size, color, r) for size, color in colored])


def _decode_part(size: int, color: int, residue: int) -> tuple[int, int]:
    # The (width, height) pair of one colored part, the inverse of
    # color_map's formula for one diagonal cell: width - height = rank and
    # width + height - 1 = size give width color + (size - r) // 2 + 1 on
    # either parity.  The one backward formula: rank_from_color, the box
    # law and inverse_map all read it.
    width = color + (size - residue) // 2 + 1
    return width, size - width + 1


def check_box_condition(
    colored: ColoredPartition, params: IdentityParams, max_width: int, max_height: int
) -> bool:
    """Whether the decoded member fits ``max_height`` rows x ``max_width`` columns.

    Only the largest part matters: the member's first row is the width of
    its first pair and its length that pair's height, so the box holds it
    exactly when the first part decodes to a pair that fits the box.  The
    empty colored partition always fits.
    """
    if not colored:
        return True
    width, height = _decode_part(*colored[0], params.residue)
    return width <= max_width and height <= max_height


def alt_color_map(parts: Partition, params: IdentityParams) -> ColoredPartition:
    """Exploratory rank-folding coloring (kept verbatim, colors may be 0).

    Folds rank v to v-k+r above the window midpoint and to -v+k-r at or below
    it, where k is the half-modulus.  The fold loses the sign of v-(k-r), so
    distinct members can share an image — e.g. with modulus 7, residue 1 both
    (5,5) and (4,4,2) map to ((6,1),(4,1)); unlike :func:`color_map` this
    encoding is not invertible.
    """
    fold = params.half_modulus - params.residue
    encoded = []
    # angle i has rank width - height and length width + height - 1
    for i, (width, height) in enumerate(angles(parts), start=1):
        rank = width - height
        if not params.rank_in_window(rank):
            raise _outside_window(rank, i, params)
        color = rank - fold if rank > fold else fold - rank
        encoded.append((width + height - 1, color))
    return tuple(encoded)


def format_colored(colored: ColoredPartition) -> str:
    """Render like ``(9_2,1_1)``; the empty colored partition is ``()``."""
    return "(" + ",".join([f"{size}_{color}" for size, color in colored]) + ")"
