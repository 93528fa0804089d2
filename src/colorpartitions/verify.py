"""Verification harness: runs the counting identities over parameter grids.

Each check covers one grid cell (a modulus/residue pair, or one finitized
family) and reports an aggregate record; the first counterexample, if any, is
spelled out in the record's note.  Reports render to aligned text and to
canonical JSON.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from . import coloring, families, kernels, series
from .coloring import ColoredPartition, IdentityParams, color_map, inverse_map
from .partitions import Partition, _extend_rows, _require_count, _require_int

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "check_product_counts",
    "check_bijection",
    "check_gordon",
    "check_finitized",
    "finitized_top_ok",
    "verify_identity_grid",
    "verify_gordon_grid",
    "verify_finitized_grid",
    "verify_all",
    "DEFAULT_MODULI",
    "DEFAULT_GORDON_PAIRS",
    "DEFAULT_FINITIZED_HALVES",
]

DEFAULT_MODULI = range(4, 10)
DEFAULT_GORDON_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
DEFAULT_FINITIZED_HALVES = (2, 3, 4)
DEFAULT_N_MAX = 30
DEFAULT_GORDON_N_MAX = 25
DEFAULT_ODD_SIZE_MAX = 12
DEFAULT_EVEN_SIZE_MAX = 10


class CheckRecord(NamedTuple):
    """Outcome of one grid cell."""

    scope: str  # product_counts | bijection | gordon | finitized
    params: str  # e.g. "M=7 r=1"
    span: str  # e.g. "n<=30"
    checked: int  # number of individual comparisons that ran
    ok: bool
    note: str = ""


class VerificationReport(NamedTuple):
    title: str
    records: tuple[CheckRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def first_failure(self) -> CheckRecord | None:
        for record in self.records:
            if not record.ok:
                return record
        return None

    @property
    def total_checked(self) -> int:
        return sum(record.checked for record in self.records)


def check_product_counts(params: IdentityParams, n_max: int) -> CheckRecord:
    """Rank-window member counts against the closed-form series coefficients.

    The counts come from the Frobenius-pair DP
    (:func:`~colorpartitions.kernels.count_rank_bounded_partitions`) over
    the cell's window, called directly, with no member built.  The closed
    form is the avoided-residue product when the residue is strictly below
    half the modulus; at 2r = M (where that product over-counts) it is the
    theta quotient instead, and the record notes the substitution.  Only
    that one series is built.  ``n_max`` must be a nonnegative int.
    """
    _require_count(n_max, "n_max")
    name, build = _closed_forms(params)[0]
    counts = kernels.count_rank_bounded_partitions(
        n_max, n_max, params.min_rank, params.max_rank, n_max
    )
    note = "" if params.has_product_form else "2r = M: no product form, checked theta quotient"
    label = f"M={params.modulus} r={params.residue}"
    return _count_record("product_counts", label, n_max, counts, name, build(params, n_max), note)


def _count_record(
    scope: str, label: str, n_max: int, counts: Iterable[int],
    form_name: str, closed_form: series.TruncatedSeries, note: str = "",
) -> CheckRecord:
    # Member counts at weights 0..n_max against one closed form's coefficients;
    # the record stops at the first mismatch.
    span = f"n<={n_max}"
    for n, count in enumerate(counts):
        if count != closed_form[n]:
            note = f"n={n}: {count} members vs {form_name} coefficient {closed_form[n]}"
            return CheckRecord(scope, label, span, n + 1, False, note)
    return CheckRecord(scope, label, span, n_max + 1, True, note)


def check_bijection(params: IdentityParams, n_max: int) -> CheckRecord:
    """Full encode/decode consistency plus the four-way count equality.

    Per weight: every rank-window member encodes to a colored partition of
    the same weight that passes conditions (i)-(iii) and decodes back to
    itself, so the encoding is an injection into the colored family; the
    member count equals that family's count, taken by head with the packed
    transfer matrix behind
    :func:`~colorpartitions.families.colored_head_counts` (every head's
    series summed packed and unpacked once), so the injection is onto; and
    the member count equals the restricted-product,
    theta-quotient, and multisum coefficients alike (the product leg drops
    out at 2r = M, where no product form exists).  ``n_max`` must be a
    nonnegative int.
    """
    _require_count(n_max, "n_max")
    return _bijection_records([params], n_max)[params]


def _bijection_records(
    cells: list[IdentityParams], n_max: int
) -> dict[IdentityParams, CheckRecord]:
    """The bijection record of each of a nonempty list of distinct cells.

    The records share one walk at the cells' widest modulus M
    (:func:`_members_by_top`): each residue r of the cells has a cell at M,
    since 2r <= M' <= M for each cell (M', r), and cell (M', r) reads the
    first M' - 2 entries of r's counts by top rank.  The walk also
    certifies, per residue r, each member's round trip at every modulus of
    r that holds it, by induction along the member's chain (certified: the
    parent and the one new part its encoding at (M, r) adds).  A record is
    the one the public ``color_map`` and ``inverse_map`` give on every
    (cell, member) pair: each cell puts only the suspects of its residue
    that it holds through that round trip, at its own params.  Each cell
    builds every series of :func:`_closed_forms`.
    """
    walked = _members_by_top(*_walk_shape(cells), n_max)
    records = {}
    for params in cells:
        by_top, suspects = walked[params.residue]
        counts = [sum(runs[: params.modulus - 2]) for runs in by_top]
        forms = [(name, build(params, n_max)) for name, build in _closed_forms(params)]
        records[params] = _bijection_record(params, n_max, suspects, counts, forms)
    return records


def _walk_shape(cells: list[IdentityParams]) -> tuple[int, list[int]]:
    # The modulus and residues of the one walk the cells' bijection records
    # share: their widest modulus, and their residues in ascending order.
    return max(params.modulus for params in cells), sorted({params.residue for params in cells})


def _bijection_record(
    params: IdentityParams, n_max: int,
    suspects: list[list[tuple[Partition, int]]],
    counts: list[int], forms: list[tuple[str, series.TruncatedSeries]],
) -> CheckRecord:
    # Weight by weight: the round trip of the cell's suspects, then its member
    # count against the colored family's by head (the members encode
    # injectively into it, so the encoding is onto iff the counts agree) and
    # every series.  The record stops at the first failure, counted at its
    # position in the per-cell loop's reverse-lexicographic order, which the
    # cell's member list gives (the walk keeps no rows but the suspects').
    label = f"M={params.modulus} r={params.residue}"
    span, cut = f"n<={n_max}", params.modulus - 2
    bits, packed = families._colored_head_counts(params, n_max, n_max)
    colored = kernels._unpack(sum(packed.values()), bits, n_max + 1)
    onto = "n={n}: encoded family differs from direct generation ({count} vs {value} members)"
    legs = [(colored, onto)] + [
        (form, f"n={{n}}: {{count}} members vs {name} {{value}}") for name, form in forms
    ]
    checked = 0
    for n, count in enumerate(counts):
        for p in sorted((p for p, index in suspects[n] if index < cut), reverse=True):
            if note := _round_trip_note(p, n, params):
                checked += sum(q >= p for q in families.rank_window_members(params, n))
                return CheckRecord("bijection", label, span, checked, False, note)
        checked += count
        for form, template in legs:
            checked += 1
            if count != form[n]:
                note = template.format(n=n, count=count, value=form[n])
                return CheckRecord("bijection", label, span, checked, False, note)
    return CheckRecord("bijection", label, span, checked, True)


def _members_by_top(
    modulus: int, residues: list[int], max_weight: int
) -> dict[int, tuple[list[list[int]], list[list[tuple[Partition, int]]]]]:
    """Rank-window member counts of weight 0..max_weight, by top rank, per residue.

    For each residue r, ``counts[n][t + r - 1]`` is the number of weight-n
    members of the window [2 - r, M - r - 2] at ``modulus`` M whose largest
    successive rank is t, and ``counts[n][0]`` counts the empty partition.
    The windows of one residue share their lower end, so the first M' - 2
    entries of ``counts[n]`` count the members at a modulus M' <= M.  One
    walk serves every weight, every residue and every such modulus: it
    descends the chains of Frobenius pairs whose ranks lie in the union of
    the residues' windows, and a chain node is counted for each residue r
    whose window holds all of its ranks.  A node no residue holds is not
    descended, since its children add ranks.  So each member's rows are
    built once, however many residues hold it, and only a suspect keeps
    them.  The walk reads its pairs from the windows' bounds alone and runs
    no pair DP.  The bijection record is its one reader; the count records
    read the pair DP.

    ``suspects[n]`` lists, as (member, run index), the weight-n members
    whose ``color_map`` output at (M, r) is not certified; any other member
    passes the public round trip at every modulus M' of residue r that
    holds it.  The encoding reads M only in its window check, the decode
    reads r only, and of ``check_conditions`` only the color range and
    (iii) read M; they hold when every rank the colors encode is at most
    M' - r - 2.  The certificate runs per residue, by induction along the
    chain: the empty member is certified for r if it encodes to () at
    (M, r).  Any other member r holds extends its parent's chain by one
    pair (w, h); r holds the parent too, and the member is certified for r
    if the parent is and the member encodes at (M, r) to the parent's
    encoding plus one part (s, c): every size and color an exact int, c at
    least 1, (i), s equal to the width plus the height of its decode minus
    1, that decode equal to (w, h), and (ii) after the parent's last part.
    So sizes strictly decrease along the chain and sum to the weight, and
    the part encodes the rank w - h, at most the member's top rank, itself
    at most M' - r - 2; no rank test is left to run.  By induction the
    decoded pairs are the chain, so the decode is the member.  A suspect
    certifies no child; correct code has none.

    Each check runs once per key and residue per call.  The checks of one
    part alone (the color floor, (i), the size and the decode) are keyed by
    the part, and (ii) by the previous part and the part: each part's memo
    entry holds the table of (ii) verdicts on the parts that may follow it,
    and a certified node with children keeps its entry's table in its slot
    on the walk's path, so its children look up their own part alone.
    """
    _require_count(max_weight, "max_weight")
    # per residue: (r, params, counts, suspects, slots, parts), where
    # slots[d] is (certified encoding at (M, r), table of (ii) verdicts after
    # its last part) of the depth-d node on the walk's current path, or
    # None, and parts maps a part to its decoded pair and its own table, or
    # to None if it fails a check of its own
    states = {}
    for r in residues:
        params = IdentityParams(modulus, r)
        counts = [[0] * (modulus - 2) for _ in range(max_weight + 1)]
        counts[0][0] = 1
        suspects: list[list[tuple[Partition, int]]] = [[] for _ in range(max_weight + 1)]
        slots = [None] * (max_weight + 2)
        # the module global, read per call, so a patched color_map is seen
        if color_map((), params) == ():
            slots[0] = ((), None)
        else:
            suspects[0].append(((), 0))
        states[r] = (r, params, counts, suspects, slots, {})
    # A chain whose ranks lie in [lo, t] is held by the residues r with
    # 2 - lo <= r <= M - 2 - t; held[a][b] holds the states of the residues
    # a..b, ascending (none when a > b).
    low, high = min(residues), max(residues)
    held = [
        [tuple(states[r] for r in residues if a <= r <= b) for b in range(high + 1)]
        for a in range(high + 1)
    ]
    walk = (modulus, held, max_weight)
    _walk(walk, (), 0, 0, 1 - high, low, high, max_weight + 1, max_weight + 1, max_weight)
    return {r: (counts, suspects) for r, _, counts, suspects, _, _ in states.values()}


def _walk(walk, p, depth, last, top, low, high, w_head, h_head, budget) -> None:
    # The walk of _members_by_top below one chain node: its rows p, its
    # depth, last height and top rank, and the interval low..high of
    # residues whose windows hold its ranks.  Every pair (w, h) below
    # (w_head, h_head) that fits ``budget`` and has its rank w - h in the
    # union [2 - high, M - 2 - low] of those windows, w descending and h
    # ascending (so the rank falls), is counted for each residue whose
    # window still holds the chain, encoded by color_map and certified at
    # its params.  The pairs come from those bounds alone: a rank of at
    # most M - 2 - low bounds w below h_head + M - 2 - low, and each w has
    # one interval of heights.  A residue set with a gap can leave a pair
    # held by none; it is skipped.  A child pair needs w' < w, h' < h and
    # weight left, so a node with w = 1, h = 1 or no budget left is a leaf:
    # it is not descended, and only its children would read its slot, so a
    # certified leaf fills none.  A module function, so no closure holds its
    # state in a reference cycle.
    modulus, held_of, max_weight = walk
    for w in range(min(w_head - 1, budget, h_head + modulus - 3 - low), 0, -1):
        h_top = min(h_head - 1, budget + 1 - w, w + high - 2)
        for h in range(max(1, w - (modulus - 2 - low)), h_top + 1):
            t = w - h
            a = low if low + t >= 2 else 2 - t
            b = high if high + t <= modulus - 2 else modulus - 2 - t
            held = held_of[a][b]
            if not held:
                continue
            node_top = t if t > top else top
            rest = budget - w - h + 1
            n = max_weight - rest
            q = _extend_rows(p, depth, last, w, h)
            pair, inner = (w, h), rest and w > 1 and h > 1
            for r, params, counts, suspects, slots, parts in held:
                index = node_top + r - 1
                counts[n][index] += 1
                member = color_map(q, params)
                parent = slots[depth]  # (its encoding, (ii) table) for this residue
                if parent is not None and len(member) == depth + 1 and member[:-1] == parent[0]:
                    # two exact ints per part: tuple equality lets 3.0 or
                    # True pass for one, and they hash alike too, so this
                    # runs before the part is looked up
                    for size, color in member:
                        if type(size) is not int or type(color) is not int:
                            break
                    else:
                        part = member[-1]
                        entry = parts.get(part, ...)  # ... marks a part not yet checked
                        if entry is ...:
                            entry = parts[part] = _part_entry(*part, r)
                        if entry is not None and entry[0] == pair:
                            encoding, gaps = parent
                            ok = not depth or gaps.get(part)  # no (ii) for a first part
                            if ok is None:
                                ok = gaps[part] = coloring._gap_ok(*encoding[-1], *part, params)
                            if ok:
                                if inner:
                                    slots[depth + 1] = (member, entry[1])
                                continue
                slots[depth + 1] = None
                suspects[n].append((q, index))
            if inner:
                _walk(walk, q, depth + 1, h, node_top, a, b, w, h, rest)


def _part_entry(size: int, color: int, residue: int) -> tuple[tuple[int, int], dict] | None:
    # The memo entry of one colored part at a residue: its decoded pair and
    # an empty table of (ii) verdicts on the parts after it, if it has color
    # at least 1, passes (i) and has size width + height - 1 for its decoded
    # pair; None otherwise.  The order rule needs no test: every certified
    # part decodes to its chain's pair, and the pairs of a chain strictly
    # decrease, so the sizes do too.
    width, height = coloring._decode_part(size, color, residue)
    if color < 1 or size != width + height - 1 or not coloring._size_ok(size, width - height):
        return None
    return (width, height), {}


def _closed_forms(params: IdentityParams) -> list[tuple[str, Callable]]:
    # The (name, builder) pairs of the series the records read, each record
    # building only those it reads: the count record the first (the
    # product, or the theta quotient at 2r = M, where the product
    # over-counts), the bijection record every one.
    forms = [("theta quotient", series.bosonic_sum), ("multisum", series.fermionic_multisum)]
    if params.has_product_form:
        forms.insert(0, ("product", series.restricted_product))
    return forms


def _round_trip_note(p: Partition, n: int, params: IdentityParams) -> str | None:
    # Why p fails the public round trip at params, or None if it passes.
    member = color_map(p, params)
    if sum(size for size, _ in member) != n:
        return f"n={n}: {p} changes weight"
    try:
        decoded = inverse_map(member, params)
    except ValueError as exc:
        return f"n={n}: {p} not decodable: {str(exc).removeprefix('not decodable: ')}"
    if decoded != p:
        return f"n={n}: {p} fails round trip"
    return None


def check_gordon(half_modulus: int, residue: int, n_max: int) -> CheckRecord:
    """Gordon-condition partition counts against the restricted product.

    The counts come from the frequency transfer matrix
    :func:`~colorpartitions.families.frequency_counts`; the filter over
    every partition, :func:`~colorpartitions.families.gordon_members`, is
    its test oracle.  ``half_modulus`` must be an int k >= 1, ``residue`` an
    int in 1..k and ``n_max`` a nonnegative int, each refused under its own
    name.
    """
    families._require_gordon(half_modulus, residue)
    _require_count(n_max, "n_max")
    params = IdentityParams(2 * half_modulus + 1, residue)
    product = series.restricted_product(params, n_max)
    counts = families.frequency_counts(params, n_max)
    label = f"k={half_modulus} r={residue}"
    return _count_record("gordon", label, n_max, counts, "product", product)


def finitized_top_ok(
    colored: ColoredPartition, params: IdentityParams, size: int
) -> bool:
    """Whether ``colored`` decodes to a member of the size-``size`` finitized box.

    The box law :func:`~colorpartitions.coloring.check_box_condition` on
    ``series.finitized_box(params, size)``; it reads only the largest part.
    An ill-formed box (negative side) admits nothing, not even the empty
    colored partition.
    """
    max_part, max_length = series.finitized_box(params, size)
    if max_part < 0 or max_length < 0:
        return False
    return coloring.check_box_condition(colored, params, max_part, max_length)


def check_finitized(
    params: IdentityParams, size_max: int, n_max: int | None = None
) -> CheckRecord:
    """Polynomial identity plus two counting routes, for sizes 0..size_max.

    For each size: the alternating-binomial side equals the multisum side
    coefficient-for-coefficient; the coefficients equal the box-bounded
    rank-window counts (partition side); and they equal the counts of colored
    members passing the top-part bound (colored side).  The colored side is a
    head count under conditions (i)-(iii), the packed head transfer matrix
    behind :func:`~colorpartitions.families.colored_head_counts`, taken once
    for the largest box.  One sweep up the sizes adds each head's series,
    still packed, at the first size whose box admits it, and each size
    unpacks its running total once; the colored enumeration is its test
    oracle.  The other routes are built once per cell too: both sides read
    one packed q-Pascal table per base, grown at the width the largest size
    needs, and are compared as packed ints at that width
    (``series._finitized_sides``); the box counts read one pair sweep at the
    largest box, each size adding the pairs its box newly admits
    (``families._boxed_counts``).  ``n_max`` bounds the colored count's
    weight and truncates the per-weight comparisons.  A ``size_max`` or
    ``n_max`` that is not a nonnegative int raises ValueError.
    """
    _require_count(size_max, "size_max")
    if n_max is not None:
        _require_count(n_max, "n_max")
    parity = "odd" if params.is_odd else "even"
    label = f"{parity} k={params.half_modulus} r={params.residue}"
    span = f"N<={size_max}"
    # The box law reads only the largest part and bounds it by W + H - 1,
    # which grows with the size: the weight series of the members each head
    # heads, up to the largest box, serve every size.
    boxes = [series.finitized_box(params, size) for size in range(size_max + 1)]
    largest_top = _colored_top(*boxes[-1])
    weight_max = _gap2_weight_bound(largest_top)
    if n_max is not None:
        weight_max = min(weight_max, n_max)
    bits, packed = families._colored_head_counts(params, weight_max, largest_top)
    sweeps = zip(
        _admitted_series(params, packed, size_max),
        series._finitized_sides(params, size_max),
        families._boxed_counts(params, boxes),
    )
    checked = 0
    for size, (admitted, (lhs, rhs), counts) in enumerate(sweeps):
        checked += 1
        if lhs != rhs:
            degree = series.first_difference(lhs.coefficients, rhs.coefficients)
            note = f"size={size}: sides first differ at degree {degree}"
            return CheckRecord("finitized", label, span, checked, False, note)
        max_part, max_length = boxes[size]
        box = series.TruncatedSeries(counts)
        colored_top = _colored_top(max_part, max_length)
        top = max(lhs.degree, box.order, _gap2_weight_bound(colored_top))
        if n_max is not None:
            top = min(top, n_max)
        # limbs past weight_max read 0: every head's series is truncated there
        colored = kernels._unpack(admitted, bits, top + 1)
        expected = lhs.padded(top)
        routes = (("box count", box.padded(top)), ("top-part count", colored))
        if all(values == expected for _, values in routes):
            checked += 2 * (top + 1)
            continue
        for n, coefficient in enumerate(expected):  # word the first failure
            checked += 2
            for route, values in routes:
                if values[n] != coefficient:
                    note = f"size={size} n={n}: {route} {values[n]} vs coefficient {coefficient}"
                    return CheckRecord("finitized", label, span, checked, False, note)
    return CheckRecord("finitized", label, span, checked, True)


def _admitted_series(
    params: IdentityParams, packed: dict[ColoredPartition, int], size_max: int
) -> Iterator[int]:
    # For each size 0..size_max, the packed sum of the series of the heads
    # of ``packed`` (the head DP's, in ascending size) that finitized_top_ok
    # admits at that size.  The box law decodes a head (s, c) to its pair
    # (w, h) and asks w <= W and h <= H.  Within one color neither w nor h
    # falls as s grows, so each box admits a prefix of each color's heads,
    # and neither W nor H falls as the size grows, so that prefix only
    # extends: one queue per color, smallest head next, is advanced while
    # the law admits its next head, and each head is asked about once when
    # admitted.  () is admitted exactly when the box is well formed.
    queues: dict[int, list[ColoredPartition]] = {}
    for head in reversed(packed):  # descending, so each queue pops its smallest
        if head:
            queues.setdefault(head[0][1], []).append(head)
    total = 0
    for size in range(size_max + 1):
        for queue in queues.values():
            while queue and finitized_top_ok(queue[-1], params, size):
                total += packed[queue.pop()]
        yield (total + packed[()]) if finitized_top_ok((), params, size) else total


def _colored_top(max_part: int, max_length: int) -> int:
    # Largest colored part a box admits; an ill-formed box admits none.
    return max_part + max_length - 1 if min(max_part, max_length) >= 0 else 0


def _gap2_weight_bound(max_size: int) -> int:
    # Heaviest gap-2 partition with largest part max_size: max_size + (max_size-2) + ...
    if max_size <= 0:
        return 0
    steps = (max_size + 1) // 2
    return steps * (max_size - steps + 1)


def verify_identity_grid(
    moduli=DEFAULT_MODULI,
    residues=None,
    n_max: int = DEFAULT_N_MAX,
    scope: str = "both",
) -> VerificationReport:
    """Count and/or bijection checks over a modulus grid.

    scope: "product_counts", "bijection", or "both".  Records come in the
    caller's order: moduli as given (repeats included), and within each the
    residues as given, or ascending by default.  Each distinct cell's count
    record is :func:`check_product_counts`'s, called through the module
    global, and the bijection records share one walk at the widest modulus
    (see :func:`_bijection_records`).  Every modulus must be an int >= 3,
    every residue an int >= 1 and ``n_max`` a nonnegative int, each checked
    under its own name before any work.
    """
    if scope not in ("product_counts", "bijection", "both"):
        raise ValueError(f"unknown scope {scope!r}")
    _require_count(n_max, "n_max")
    moduli = tuple(moduli)
    residues = None if residues is None else tuple(residues)
    cells = _identity_cells(moduli, residues)
    records_of: dict[IdentityParams, list[CheckRecord]] = {params: [] for params in cells}
    if scope != "bijection":
        for params, records in records_of.items():
            records.append(check_product_counts(params, n_max))
    if scope != "product_counts" and records_of:
        for params, record in _bijection_records(list(records_of), n_max).items():
            records_of[params].append(record)
    return VerificationReport(
        f"{scope} grid", tuple(record for params in cells for record in records_of[params])
    )


def _identity_cells(moduli, residues) -> list[IdentityParams]:
    # The grid's cells in record order: residues as given, or 1..M/2.  A
    # modulus below 3 or a residue below 1 is refused by name before any cell.
    _require_at_least(moduli, "modulus", 3)
    _require_at_least(residues or (), "residue", 1)
    return [
        IdentityParams(modulus, residue)
        for modulus in moduli
        for residue in (range(1, modulus // 2 + 1) if residues is None else residues)
        if 2 * residue <= modulus
    ]


def _require_at_least(values, name: str, least: int) -> None:
    # Refuses, under ``name``, the first of a grid's values that is not an int
    # of at least ``least``.
    for value in values:
        _require_int(value, name)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def verify_gordon_grid(
    pairs=DEFAULT_GORDON_PAIRS, n_max: int = DEFAULT_GORDON_N_MAX
) -> VerificationReport:
    """:func:`check_gordon` for each (half_modulus, residue) pair, in order.

    ``n_max`` must be a nonnegative int and each pair a Gordon cell (see
    :func:`check_gordon`), each checked before any work.
    """
    _require_count(n_max, "n_max")
    pairs = tuple(pairs)
    for half, residue in pairs:
        families._require_gordon(half, residue)
    records = tuple(check_gordon(k, r, n_max) for k, r in pairs)
    return VerificationReport("gordon grid", records)


def verify_finitized_grid(
    halves=DEFAULT_FINITIZED_HALVES,
    parities=("odd", "even"),
    odd_size_max: int = DEFAULT_ODD_SIZE_MAX,
    even_size_max: int = DEFAULT_EVEN_SIZE_MAX,
    n_max: int | None = None,
    residues=None,
) -> VerificationReport:
    """:func:`check_finitized` for each parity, half-modulus and residue.

    The cells run parity by parity, then by half-modulus k (modulus 2k + 1
    or 2k; modulus 2 has no cell), then by residue (1..k, or those of
    ``residues`` at most k), with sizes up to ``odd_size_max`` or
    ``even_size_max``.  Each parity must be "odd" or "even", each
    half-modulus and each residue an int >= 1, and each size bound and
    ``n_max`` (unless None) a nonnegative int, each checked under its own
    name before any work.
    """
    _require_count(odd_size_max, "odd_size_max")
    _require_count(even_size_max, "even_size_max")
    if n_max is not None:
        _require_count(n_max, "n_max")
    parities, halves = tuple(parities), tuple(halves)
    residues = None if residues is None else tuple(residues)
    for parity in parities:
        if parity not in ("odd", "even"):
            raise ValueError(f"unknown parity {parity!r}")
    _require_at_least(halves, "half_modulus", 1)
    _require_at_least(residues or (), "residue", 1)
    records = []
    for parity in parities:
        size_max = odd_size_max if parity == "odd" else even_size_max
        for half in halves:
            modulus = 2 * half + 1 if parity == "odd" else 2 * half
            # no residue above the half has a cell, and modulus 2 has none
            for residue in range(1, half + 1) if residues is None else residues:
                if residue <= half and modulus > 2:
                    params = IdentityParams(modulus, residue)
                    records.append(check_finitized(params, size_max, n_max))
    return VerificationReport("finitized grid", tuple(records))


def verify_all(
    n_max: int = DEFAULT_N_MAX,
    gordon_n_max: int = DEFAULT_GORDON_N_MAX,
    odd_size_max: int = DEFAULT_ODD_SIZE_MAX,
    even_size_max: int = DEFAULT_EVEN_SIZE_MAX,
) -> VerificationReport:
    """Every scope over its default grid, merged into one report.

    Each bound must be a nonnegative int, each checked under its own name
    before any work.
    """
    # n_max is checked by verify_identity_grid, before its work and the others'
    _require_count(gordon_n_max, "gordon_n_max")
    _require_count(odd_size_max, "odd_size_max")
    _require_count(even_size_max, "even_size_max")
    records = []
    records.extend(verify_identity_grid(n_max=n_max).records)
    records.extend(verify_gordon_grid(n_max=gordon_n_max).records)
    records.extend(
        verify_finitized_grid(
            odd_size_max=odd_size_max, even_size_max=even_size_max
        ).records
    )
    return VerificationReport("all scopes", tuple(records))
