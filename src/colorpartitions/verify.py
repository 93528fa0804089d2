"""Verification harness: runs the counting identities over parameter grids.

Each check covers one grid cell (a modulus/residue pair, or one finitized
family) and reports an aggregate record; the first counterexample, if any, is
spelled out in the record's note.  Reports render to aligned text and to
canonical JSON.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
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
    """The records of distinct cells sharing one residue, in ``scopes`` order.

    Cell M's weight-n members are the first M - 2 runs of bucket n of one
    descent at the widest modulus (:func:`_members_by_top`), which also
    certifies each member's round trip at every modulus that holds it when
    a bijection record is asked for, and files rows only otherwise.  A
    bijection record is the one the public ``color_map`` and ``inverse_map``
    give on every (cell, member) pair: each cell puts only the suspects it
    holds through that round trip, at its own params.
    """
    widest = max(cells, key=attrgetter("modulus"))
    if "bijection" in scopes:
        buckets, suspects = _members_by_top(widest, n_max)
    else:  # the count records read only the runs' lengths
        buckets, suspects = _members_by_top(widest, n_max, certify=False)
    records_of: dict[IdentityParams, list[CheckRecord]] = {}
    for params in cells:
        label = f"M={params.modulus} r={params.residue}"
        forms = _closed_forms(params, n_max, scopes)
        counts = [sum(map(len, runs[: params.modulus - 2])) for runs in buckets]
        records_of[params] = records = []
        if "product_counts" in scopes:
            note = "2r = M: no product form, checked theta quotient"
            note = "" if params.has_product_form else note
            records.append(_count_record("product_counts", label, n_max, counts, *forms[0], note))
        if "bijection" in scopes:
            record = _bijection_record(params, label, n_max, buckets, suspects, counts, forms)
            records.append(record)
    return records_of


def _bijection_record(
    params: IdentityParams, label: str, n_max: int,
    buckets: list[list[list[Partition]]], suspects: list[list[tuple[Partition, int]]],
    counts: list[int], forms: list[tuple[str, series.TruncatedSeries]],
) -> CheckRecord:
    # Weight by weight: the round trip of the cell's suspects, then its member
    # count against the colored family's by head (the members encode
    # injectively into it, so the encoding is onto iff the counts agree) and
    # every series.  The record stops at the first failure, counted at its
    # position in the per-cell loop's reverse-lexicographic order.
    span, cut = f"n<={n_max}", params.modulus - 2
    bits, packed, _ = families._colored_head_counts(params, n_max, n_max)
    colored = kernels._unpack(sum(packed.values()), bits, n_max + 1)
    onto = "n={n}: encoded family differs from direct generation ({count} vs {value} members)"
    legs = [(colored, onto)] + [
        (form, f"n={{n}}: {{count}} members vs {name} {{value}}") for name, form in forms
    ]
    checked = 0
    for n, runs in enumerate(buckets):
        for p in sorted((p for p, index in suspects[n] if index < cut), reverse=True):
            if note := _round_trip_note(p, n, params):
                checked += sum(q >= p for run in runs[:cut] for q in run)
                return CheckRecord("bijection", label, span, checked, False, note)
        checked += counts[n]
        for form, template in legs:
            checked += 1
            if counts[n] != form[n]:
                note = template.format(n=n, count=counts[n], value=form[n])
                return CheckRecord("bijection", label, span, checked, False, note)
    return CheckRecord("bijection", label, span, checked, True)


def _members_by_top(
    widest: IdentityParams, max_weight: int, certify: bool = True
) -> tuple[list[list[list[Partition]]], list[list[tuple[Partition, int]]]]:
    """Rank-window members of weight 0..max_weight, filed by top rank.

    ``buckets[n][t + r - 1]`` holds, in descent order, the weight-n members
    whose largest successive rank is t, and ``buckets[n][0]`` the empty
    partition.  The windows [2 - r, M - r - 2] of one residue share their
    lower end, so the first M' - 2 runs of each bucket are the members at a
    modulus M' <= M: one descent serves every weight and every such modulus.

    ``suspects[n]`` lists, as (member, run index), the weight-n members
    whose ``color_map`` output at ``widest`` is not certified; any other
    member passes the public round trip at every modulus M' that holds it.
    The encoding reads M only in its window check, the decode reads r only,
    and of ``check_conditions`` only the color range and (iii) read M; they
    hold when every rank the colors encode is at most M' - r - 2.  The empty
    member is certified if it encodes to ().  Any other member extends its
    parent's chain by one pair (w, h) and is certified if its parent is and
    it encodes to the parent's encoding plus one part: every size and color
    an exact int, and the new part accepted by :func:`_part_rank` (color at
    least 1, (i), (ii) after the parent's last part, size w + h - 1, so
    sizes strictly decrease along the chain and sum to the weight, and a
    decode to (w, h)) with an encoded rank at most the member's top rank,
    itself at most M' - r - 2.  By induction the decoded pairs are the
    chain, so the decode is the member.  A suspect certifies no child;
    correct code has none.

    A descent node (``families._pair_descent``) carries its depth, its last
    height, its top rank, its rows (its parent's extended by one pair,
    ``_extend_rows``) and, when ``certify`` is set, its certified encoding
    or None.  The checks of one part depend only on (previous part or None,
    part, w, h), so each such key is checked once per call and its encoded
    rank kept for the nodes that share it.  Without ``certify`` (the count
    records read only the runs' lengths) the walk files rows only: no member
    is encoded and ``suspects`` stays empty.
    """
    families._require_weight(max_weight)
    r = widest.residue
    buckets = [[[] for _ in range(widest.modulus - 2)] for _ in range(max_weight + 1)]
    buckets[0][0].append(())
    suspects: list[list[tuple[Partition, int]]] = [[] for _ in range(max_weight + 1)]
    ranks: dict = {}  # (previous part or None, part, w, h) -> encoded rank, or None

    def file_rows(parent, w, h, rest):
        depth, last, top, p = parent
        if w - h > top:
            top = w - h
        p = _extend_rows(p, depth, last, w, h)
        buckets[max_weight - rest][top + r - 1].append(p)
        return depth + 1, h, top, p

    def file_certified(parent, w, h, rest):
        depth, last, top, p, encoding = parent
        if w - h > top:
            top = w - h
        p = _extend_rows(p, depth, last, w, h)
        n = max_weight - rest
        buckets[n][top + r - 1].append(p)
        # the module global, read per call, so a patched color_map is seen
        member = color_map(p, widest)
        if encoding is not None and len(member) == depth + 1 and member[:-1] == encoding:
            # two exact ints per part: tuple equality lets 3.0 or True pass
            # for one, and they hash alike too, so this runs before the key
            # is looked up
            for size, color in member:
                if type(size) is not int or type(color) is not int:
                    break
            else:
                key = (encoding[-1] if depth else None, member[-1], w, h)
                rank = ranks.get(key, ...)  # ... marks a key not yet checked
                if rank is ...:
                    rank = ranks[key] = _part_rank(*key, widest)
                if rank is not None and rank <= top:
                    return depth + 1, h, top, p, member
        suspects[n].append((p, top + r - 1))
        return depth + 1, h, top, p, None

    if certify:
        # the empty member's certified encoding, or None
        encoding = () if color_map((), widest) == () else None
        if encoding is None:
            suspects[0].append(((), 0))
        file, root = file_certified, (0, 0, 1 - r, (), encoding)
    else:
        file, root = file_rows, (0, 0, 1 - r, ())
    hi = widest.max_rank
    _, _, _, pairs = kernels._pair_sweep(
        max_weight, max_weight, widest.min_rank, hi, max_weight
    )
    families._pair_descent(pairs, hi, file, root, len(pairs), max_weight + 1, max_weight)
    return buckets, suspects


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
    residues as given, or ascending by default.  The work runs residue by
    residue (see :func:`_residue_records`).  Every modulus and residue must
    be an int and ``n_max`` a nonnegative int, each checked before any work.
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
    records_of: dict[IdentityParams, list[CheckRecord]] = {}
    for residue in sorted({params.residue for params in cells}):
        distinct = [params for params in dict.fromkeys(cells) if params.residue == residue]
        records_of.update(_residue_records(distinct, n_max, scopes))
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
