"""Verification harness: runs the counting identities over parameter grids.

Each check covers one grid cell (a modulus/residue pair, or one finitized
family) and reports an aggregate record; the first counterexample, if any, is
spelled out in the record's note.  Reports render to aligned text and to
canonical JSON.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple

from . import coloring, families, kernels, series
from .coloring import ColoredPartition, IdentityParams, color_map, inverse_map
from .partitions import Partition, _extend_rows

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

    The closed form is the avoided-residue product when the residue is
    strictly below half the modulus; at 2r = M (where that product
    over-counts) it is the theta quotient instead, and the record notes the
    substitution.  ``n_max`` must be a nonnegative int.
    """
    families._require_weight(n_max, "n_max")
    return _residue_records([params], n_max, ("product_counts",))[params][0]


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
    families._require_weight(n_max, "n_max")
    return _residue_records([params], n_max, ("bijection",))[params][0]


def _residue_records(
    cells: list[IdentityParams], n_max: int, scopes: tuple[str, ...]
) -> dict[IdentityParams, list[CheckRecord]]:
    """The records of distinct cells, each in ``scopes`` order.

    One walk at the cells' widest modulus M (:func:`_members_by_top`)
    serves every cell: each residue r of the cells has a cell at M, since
    2r <= M' <= M for each cell (M', r), and cell (M', r) reads the first
    M' - 2 entries of r's counts by top rank.  For a bijection record the
    walk also certifies, per residue r, each member's round trip at every
    modulus of r that holds it, by induction along the member's chain
    (certified: the parent and the one new part its encoding at (M, r)
    adds); otherwise it only counts.  A bijection record is the one the
    public ``color_map`` and ``inverse_map`` give on every (cell, member)
    pair: each cell puts only the suspects of its residue that it holds
    through that round trip, at its own params.
    """
    modulus = max(params.modulus for params in cells)
    residues = sorted({params.residue for params in cells})
    walked = _members_by_top(modulus, residues, n_max, certify="bijection" in scopes)
    records_of: dict[IdentityParams, list[CheckRecord]] = {}
    for params in cells:
        label = f"M={params.modulus} r={params.residue}"
        forms = _closed_forms(params, n_max, scopes)
        by_top, suspects = walked[params.residue]
        counts = [sum(runs[: params.modulus - 2]) for runs in by_top]
        records_of[params] = records = []
        if "product_counts" in scopes:
            note = "2r = M: no product form, checked theta quotient"
            note = "" if params.has_product_form else note
            records.append(_count_record("product_counts", label, n_max, counts, *forms[0], note))
        if "bijection" in scopes:
            record = _bijection_record(params, label, n_max, suspects, counts, forms)
            records.append(record)
    return records_of


def _bijection_record(
    params: IdentityParams, label: str, n_max: int,
    suspects: list[list[tuple[Partition, int]]],
    counts: list[int], forms: list[tuple[str, series.TruncatedSeries]],
) -> CheckRecord:
    # Weight by weight: the round trip of the cell's suspects, then its member
    # count against the colored family's by head (the members encode
    # injectively into it, so the encoding is onto iff the counts agree) and
    # every series.  The record stops at the first failure, counted at its
    # position in the per-cell loop's reverse-lexicographic order, which the
    # cell's member list gives (the walk keeps no rows but the suspects').
    span, cut = f"n<={n_max}", params.modulus - 2
    bits, packed, _ = families._colored_head_counts(params, n_max, n_max)
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
    modulus: int, residues: list[int], max_weight: int, certify: bool = True
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
    them.

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
    encoding plus one part: every size and color an exact int, and the new
    part accepted by :func:`_part_rank` (color at least 1, (i), (ii) after
    the parent's last part, size w + h - 1, so sizes strictly decrease
    along the chain and sum to the weight, and a decode to (w, h)) with an
    encoded rank at most the member's top rank, itself at most M' - r - 2.
    By induction the decoded pairs are the chain, so the decode is the
    member.  A suspect certifies no child; correct code has none.

    The checks of one part depend only on (previous part or None, part, w,
    h) and the residue, so each such key is checked once per residue per
    call and its encoded rank kept for the nodes that share it.  Without
    ``certify`` (the count records read only the counts) the walk builds no
    rows: no member is encoded and every ``suspects[n]`` stays empty.
    """
    families._require_weight(max_weight)
    # per residue: (r, params, counts, suspects, encodings, ranks), where
    # encodings[d] is the certified encoding at (M, r), or None, of the
    # depth-d node on the walk's current path, and ranks maps (previous part
    # or None, part, w, h) to the rank _part_rank gives, or None
    states = {}
    for r in residues:
        params = IdentityParams(modulus, r)
        counts = [[0] * (modulus - 2) for _ in range(max_weight + 1)]
        counts[0][0] = 1
        suspects: list[list[tuple[Partition, int]]] = [[] for _ in range(max_weight + 1)]
        encodings = [None] * (max_weight + 2)
        if certify:
            # the module global, read per call, so a patched color_map is seen
            if color_map((), params) == ():
                encodings[0] = ()
            else:
                suspects[0].append(((), 0))
        states[r] = (r, params, counts, suspects, encodings, {})
    # A chain whose ranks lie in [lo, t] is held by the residues r with
    # 2 - lo <= r <= M - 2 - t; held[a][b] holds the states of the residues
    # a..b, ascending (none when a > b).
    low, high = min(residues), max(residues)
    held = [
        [tuple(states[r] for r in residues if a <= r <= b) for b in range(high + 1)]
        for a in range(high + 1)
    ]
    _, _, _, pairs = kernels._pair_sweep(
        max_weight, max_weight, 2 - high, modulus - 2 - low, max_weight
    )
    walk = (pairs, modulus, held, max_weight, color_map if certify else None)
    _walk(walk, (), 0, 0, 1 - high, low, high, len(pairs), max_weight + 1, max_weight)
    return {r: (counts, suspects) for r, _, counts, suspects, _, _ in states.values()}


def _walk(walk, p, depth, last, top, low, high, w_head, h_head, budget) -> None:
    # The walk of _members_by_top below one chain node: its rows p (None when
    # nothing is encoded), its depth, last height and top rank, and the
    # interval low..high of residues whose windows hold its ranks.  pairs is
    # kernels._pair_sweep's over the union of the windows: pairs[w] lists
    # (h, f(w, h)) for each pair of rank w - h in it, in ascending h, so
    # ascending h the rank falls.  Every pair (w, h) below (w_head, h_head)
    # that fits ``budget`` and leaves some residue holding the chain, w
    # descending and h ascending, is counted for each such residue, and
    # encoded and certified at its params when ``encode`` is set, then
    # descended while budget is left.  A rank of at most M - 2 - low, the
    # top of the node's widest window, bounds w below h_head + M - 2 - low.
    # A module function, so no closure holds its state in a reference cycle.
    pairs, modulus, held_of, max_weight, encode = walk
    for w in range(min(w_head - 1, budget, h_head + modulus - 3 - low), 0, -1):
        for h, _ in pairs[w]:
            if h >= h_head or w + h - 1 > budget:
                break
            t = w - h
            if t + high < 2:  # below every window left, and so is the rest
                break
            a = low if low + t >= 2 else 2 - t
            b = high if high + t <= modulus - 2 else modulus - 2 - t
            held = held_of[a][b]
            if not held:
                continue
            node_top = t if t > top else top
            rest = budget - w - h + 1
            n = max_weight - rest
            if encode is None:
                q = None
                for r, _, counts, _, _, _ in held:
                    counts[n][node_top + r - 1] += 1
            else:
                q = _extend_rows(p, depth, last, w, h)
                for r, params, counts, suspects, encodings, ranks in held:
                    index = node_top + r - 1
                    counts[n][index] += 1
                    member = encode(q, params)
                    encoding = encodings[depth]  # the parent's, for this residue
                    if encoding is not None and len(member) == depth + 1 and member[:-1] == encoding:
                        # two exact ints per part: tuple equality lets 3.0 or
                        # True pass for one, and they hash alike too, so this
                        # runs before the key is looked up
                        for size, color in member:
                            if type(size) is not int or type(color) is not int:
                                break
                        else:
                            key = (encoding[-1] if depth else None, member[-1], w, h)
                            rank = ranks.get(key, ...)  # ... marks a key not yet checked
                            if rank is ...:
                                rank = ranks[key] = _part_rank(*key, params)
                            if rank is not None and rank <= node_top:
                                encodings[depth + 1] = member
                                continue
                    encodings[depth + 1] = None
                    suspects[n].append((q, index))
            if rest:
                _walk(walk, q, depth + 1, h, node_top, a, b, w, h, rest)


def _part_rank(
    previous: tuple[int, int] | None, part: tuple[int, int], w: int, h: int,
    widest: IdentityParams,
) -> int | None:
    # The rank ``part`` encodes if it has color at least 1, size w + h - 1,
    # (i), (ii) after ``previous`` (None for a first part) and decodes to the
    # pair (w, h); None otherwise.  The order rule needs no test: every
    # certified part has size w + h - 1 for its pair, and the pairs of a
    # chain strictly decrease, so the sizes do too.
    size, color = part
    rank = coloring.rank_from_color(size, color, widest)
    if color < 1 or size != w + h - 1 or not coloring._size_ok(size, rank):
        return None
    if previous is not None and not coloring._gap_ok(*previous, size, color, widest):
        return None
    return rank if coloring._decode_part(size, color, widest.residue) == (w, h) else None


def _closed_forms(
    params: IdentityParams, n_max: int, scopes: tuple[str, ...]
) -> list[tuple[str, series.TruncatedSeries]]:
    # The series the records read, each built once: the count record reads
    # the first (the product, or the theta quotient at 2r = M, where the
    # product over-counts), the bijection record every one.
    builders = [("theta quotient", series.bosonic_sum), ("multisum", series.fermionic_multisum)]
    if params.has_product_form:
        builders.insert(0, ("product", series.restricted_product))
    if "bijection" not in scopes:
        del builders[1:]
    return [(name, build(params, n_max)) for name, build in builders]


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
    its test oracle.
    """
    families._require_weight(n_max, "n_max")
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
    for the largest box.  Each size sums, still packed, the series of the
    heads its box admits (:func:`_admitted_series`) and unpacks that sum
    once; the colored enumeration is its test oracle.  ``n_max`` bounds that
    count's weight and truncates the per-weight comparisons.  A ``size_max``
    or ``n_max`` that is not a nonnegative int raises ValueError.
    """
    series._check_order(size_max)
    if n_max is not None:
        families._require_weight(n_max, "n_max")
    parity = "odd" if params.is_odd else "even"
    label = f"{parity} k={params.half_modulus} r={params.residue}"
    span = f"N<={size_max}"
    # The box law reads only the largest part and bounds it by W + H - 1,
    # which grows with the size: the weight series of the members each head
    # heads, up to the largest box, serve every size.
    largest_top = _colored_top(*series.finitized_box(params, size_max))
    weight_max = _gap2_weight_bound(largest_top)
    if n_max is not None:
        weight_max = min(weight_max, n_max)
    bits, packed, columns = families._colored_head_counts(params, weight_max, largest_top)
    checked = 0
    for size in range(size_max + 1):
        lhs = series.finitized_lhs(params, size)
        rhs = series.finitized_rhs(params, size)
        checked += 1
        if lhs != rhs:
            degree = series.first_difference(lhs.coefficients, rhs.coefficients)
            note = f"size={size}: sides first differ at degree {degree}"
            return CheckRecord("finitized", label, span, checked, False, note)
        max_part, max_length = series.finitized_box(params, size)
        box = families.boxed_counts(params, max_part, max_length)
        colored_top = _colored_top(max_part, max_length)
        top = max(lhs.degree, len(box) - 1, _gap2_weight_bound(colored_top))
        if n_max is not None:
            top = min(top, n_max)
        count = min(top, weight_max) + 1
        admitted = _admitted_series(params, size, packed[()], columns)
        colored = kernels._unpack(admitted & ((1 << (bits * count)) - 1), bits, count)
        expected = lhs.padded(top)
        routes = (("box count", _padded(box, top)), ("top-part count", _padded(colored, top)))
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
    params: IdentityParams, size: int, empty: int,
    columns: list[tuple[list[ColoredPartition], list[int]]],
) -> int:
    # The packed sum of the series of the heads the size's box admits: the
    # empty head's ``empty`` if finitized_top_ok admits (), plus per color the
    # running sum of its admitted heads.  The box law reads a head (s, c)
    # only through (W + H - 1) - s, so per color it admits the smallest
    # heads: bisecting finitized_top_ok on the color's heads, ascending in
    # size, counts them.
    def refused(head):
        return not finitized_top_ok(head, params, size)

    admitted = 0 if refused(()) else empty
    for heads, sums in columns:
        admitted += sums[bisect_left(heads, True, key=refused)]
    return admitted


def _padded(values: list[int], top: int) -> list[int]:
    # values[0..top], zero-extended as needed
    return values[: top + 1] + [0] * (top + 1 - len(values))


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
    residues as given, or ascending by default.  One walk at the widest
    modulus serves every cell (see :func:`_residue_records`).  Every modulus
    and residue must be an int and ``n_max`` a nonnegative int, each checked
    before any work.
    """
    if scope not in ("product_counts", "bijection", "both"):
        raise ValueError(f"unknown scope {scope!r}")
    families._require_weight(n_max, "n_max")
    moduli = tuple(moduli)
    residues = None if residues is None else tuple(residues)
    for name, values in (("modulus", moduli), ("residue", residues or ())):
        for value in values:
            families._require_int(value, name)
    cells = _identity_cells(moduli, residues)
    scopes = ("product_counts", "bijection") if scope == "both" else (scope,)
    records_of = _residue_records(list(dict.fromkeys(cells)), n_max, scopes) if cells else {}
    return VerificationReport(
        f"{scope} grid", tuple(record for params in cells for record in records_of[params])
    )


def _identity_cells(moduli, residues) -> list[IdentityParams]:
    # The grid's cells in record order: residues as given, or 1..M/2.
    return [
        IdentityParams(modulus, residue)
        for modulus in moduli
        for residue in (range(1, modulus // 2 + 1) if residues is None else residues)
        if 2 * residue <= modulus
    ]


def verify_gordon_grid(
    pairs=DEFAULT_GORDON_PAIRS, n_max: int = DEFAULT_GORDON_N_MAX
) -> VerificationReport:
    families._require_weight(n_max, "n_max")
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
    """Every scope over its default grid, merged into one report."""
    records = []
    records.extend(verify_identity_grid(n_max=n_max).records)
    records.extend(verify_gordon_grid(n_max=gordon_n_max).records)
    records.extend(
        verify_finitized_grid(
            odd_size_max=odd_size_max, even_size_max=even_size_max
        ).records
    )
    return VerificationReport("all scopes", tuple(records))
