"""Integer partitions: conjugation, Durfee square, successive ranks, angles.

A partition is a plain ``tuple[int, ...]`` of positive parts in non-increasing
order.  The angle decomposition slices the Ferrers diagram along its main
diagonal into nested L-shaped hooks ("angles"); angle i has width
``part_i - (i-1)`` (its arm, Durfee cell included) and height
``conjugate_i - (i-1)`` (its leg, ditto), so its length is width + height - 1
and the angle lengths sum back to the weight.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]
Angles = tuple[tuple[int, int], ...]

__all__ = [
    "Partition",
    "Angles",
    "as_partition",
    "weight",
    "conjugate",
    "durfee_size",
    "successive_ranks",
    "angles",
    "angle_lengths",
    "from_angles",
    "format_partition",
    "parse_partition",
    "partitions_of",
]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize ``parts`` into a partition tuple.

    Parts are sorted into non-increasing order (a lossless normalization);
    non-integers and values < 1 are rejected with ValueError, each part
    checked before the sort compares any two.
    """
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"parts must be positive integers, got {p!r}")
    return tuple(sorted(parts, reverse=True))


def weight(parts: Partition) -> int:
    """Sum of the parts."""
    return sum(parts)


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Ferrers diagram, in O(#parts + largest part)."""
    if not parts:
        return ()
    largest = parts[0]
    # occurrences[j] = number of parts equal to j; suffix-summing gives the
    # column heights without an O(#parts * largest) double loop.
    occurrences = [0] * (largest + 1)
    for p in parts:
        occurrences[p] += 1
    columns = []
    taller = 0
    for j in range(largest, 0, -1):
        taller += occurrences[j]
        columns.append(taller)
    columns.reverse()
    return tuple(columns)


def _require_int(value: int, name: str) -> None:
    # Exact ints only: a bool would otherwise count as 0 or 1, and shifts,
    # ranges and caches need a plain int.
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _require_count(value: int, name: str) -> None:
    # The one check on a weight, order, size or box side: a nonnegative int,
    # refused under the caller's own parameter name.
    _require_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def durfee_size(parts: Partition) -> int:
    """Side of the largest square of cells anchored at the diagram's corner."""
    return len(_durfee_heights(parts))


def _durfee_heights(parts: Partition) -> list[int]:
    # Column heights along the Durfee diagonal, one per diagonal cell, in one
    # walk: row i (0-based) is on the diagonal while parts[i] > i, and a
    # pointer moved up from the last row finds the height of column i + 1.
    heights = []
    ptr = len(parts)
    for i, part in enumerate(parts):
        if part <= i:
            break
        while parts[ptr - 1] <= i:
            ptr -= 1
        heights.append(ptr)
    return heights


def successive_ranks(parts: Partition) -> tuple[int, ...]:
    """Row minus column lengths along the Durfee diagonal.

    Rank i is ``parts[i] - conjugate(parts)[i]`` for i below the Durfee size;
    the empty partition has no ranks.
    """
    heights = _durfee_heights(parts)
    return tuple(parts[i] - heights[i] for i in range(len(heights)))


def angles(parts: Partition) -> Angles:
    """Decompose into diagonal hooks, returned as (width, height) pairs.

    Both coordinate sequences are strictly decreasing and positive; the pair
    count equals the Durfee size.
    """
    heights = _durfee_heights(parts)
    return tuple((parts[i] - i, heights[i] - i) for i in range(len(heights)))


def angle_lengths(decomposition: Angles) -> tuple[int, ...]:
    """Cell count of each angle: width + height - 1."""
    return tuple(x + y - 1 for x, y in decomposition)


def from_angles(decomposition: Angles) -> Partition:
    """Rebuild the partition whose angle decomposition is the given one.

    Inverse of :func:`angles`: requires strictly decreasing positive widths
    and strictly decreasing positive heights.
    """
    for label, side in (("widths", 0), ("heights", 1)):
        previous = None
        for pair in decomposition:
            value = pair[side]
            if previous is not None and value >= previous:
                seq = [other[side] for other in decomposition]
                raise ValueError(f"angle {label} must be strictly decreasing: {seq}")
            # int subclasses other than bool pass
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"angle {label} must be positive integers, got {value!r}")
            previous = value
    return _rows_from_pairs(decomposition)


def _rows_from_pairs(pairs) -> Partition:
    # from_angles without the checks: the caller guarantees (width, height)
    # pairs with strictly decreasing positive widths and heights.  The rows
    # grow one pair at a time by _extend_rows, the one row rule that the
    # chain walks in ``families`` and ``verify`` extend a parent's rows by.
    rows, last = (), 0
    for depth, (width, height) in enumerate(pairs):
        rows, last = _extend_rows(rows, depth, last, width, height), height
    return rows


def _extend_rows(
    rows: Partition, depth: int, last_height: int, width: int, height: int
) -> Partition:
    # The rows of a chain of ``depth`` pairs, last height ``last_height``
    # and rows ``rows``, extended by (width, height) strictly below its last
    # pair.  Row i (0-based) of the Durfee square has width_i + i cells and
    # column j has height_j + j, so the rows below the square come as one
    # run per column.  The square gains row ``depth`` and column depth + 1;
    # the new column reaches height + depth rows, so height - 1 rows of
    # depth + 1 cells follow the square, then the last old column's run,
    # shortened by height, then the runs of the columns before it.  The
    # empty chain (depth 0, last height 0, no rows) has no such runs.
    return (
        rows[:depth]
        + (width + depth,)
        + (depth + 1,) * (height - 1)
        + (depth,) * (last_height - height - 1)
        + rows[depth + last_height - 1 :]
    )


def format_partition(parts: Partition) -> str:
    """Render like ``(7,5,5,5,4,4,2)``; the empty partition is ``()``."""
    return "(" + ",".join(map(str, parts)) + ")"


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts, with or without surrounding parentheses."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped:
        return ()
    try:
        values = [int(piece) for piece in stripped.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    parts = tuple(values)
    if any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive: {text!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be non-increasing: {text!r}")
    return parts


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of ``n`` in reverse-lexicographic order.

    ``max_part`` additionally caps the largest part; it must be an int or
    None.  Reverse-lexicographic means ``(4) > (3,1) > (2,2) > (2,1,1) >
    (1,1,1,1)``.
    """
    _require_count(n, "n")
    if max_part is not None:
        _require_int(max_part, "max_part")
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    if cap < 1:
        return
    # Algorithm ZS1 (Zoghbi and Stojmenovic, 1998), started at the largest
    # partition under the cap: parts[:length] is the current partition and
    # every entry after index `last`, its last part above 1, is a 1.
    full, rest = divmod(n, cap)
    parts = [cap] * full + [1] * (n - full)
    length = full
    if rest:
        parts[full] = rest
        length += 1
    last = full if rest > 1 else (full - 1 if cap > 1 else -1)
    yield tuple(parts[:length])
    while last >= 0:
        if parts[last] == 2:
            parts[last] = 1
            last -= 1
            length += 1
        else:
            # Lower the last part above 1 by one and refill the tail with as
            # many copies of the lowered part as fit, then the remainder.
            part = parts[last] - 1
            spare = length - last
            parts[last] = part
            while spare >= part:
                last += 1
                parts[last] = part
                spare -= part
            length = last + 1
            if spare:
                length += 1
                if spare > 1:
                    last += 1
                    parts[last] = spare
        yield tuple(parts[:length])
