"""Verification harness: runs the counting identities over parameter grids.

Each check covers one grid cell (a modulus/residue pair, or one finitized
family) and reports an aggregate record; the first counterexample, if any, is
spelled out in the record's note.  Reports render to aligned text and to
canonical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import coloring, families, series
from .coloring import ColoredPartition, IdentityParams, color_map, inverse_map
from .partitions import Partition

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


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one grid cell."""

    scope: str  # product_counts | bijection | gordon | finitized
    params: str  # e.g. "M=7 r=1"
    span: str  # e.g. "n<=30"
    checked: int  # number of individual comparisons that ran
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    title: str
    records: tuple[CheckRecord, ...] = field(default_factory=tuple)

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
    substitution.
    """
    return _product_counts_record(
        params, n_max, families.rank_window_members_up_to(params, n_max)
    )


def _product_counts_record(
    params: IdentityParams, n_max: int, members_by_weight: list[list[Partition]]
) -> CheckRecord:
    if params.has_product_form:
        closed_form = series.restricted_product(params, n_max)
        form_name = "product"
        note = ""
    else:
        closed_form = series.bosonic_sum(params, n_max)
        form_name = "theta quotient"
        note = "2r = M: no product form, checked theta quotient"
    counts = map(len, members_by_weight)
    label = f"M={params.modulus} r={params.residue}"
    return _count_record("product_counts", label, n_max, counts, form_name, closed_form, note)


def _count_record(
    scope: str, label: str, n_max: int, counts: Iterable[int],
    form_name: str, closed_form: series.TruncatedSeries, note: str = "",
) -> CheckRecord:
    # Member counts at weights 0..n_max against one closed form's coefficients;
    # ``counts`` may be lazy, and the record stops at the first mismatch.
    for n, count in enumerate(counts):
        if count != closed_form[n]:
            note = f"n={n}: {count} members vs {form_name} coefficient {closed_form[n]}"
            return _fail(scope, label, n_max, n + 1, note)
    return CheckRecord(scope, label, f"n<={n_max}", n_max + 1, True, note)


def check_bijection(params: IdentityParams, n_max: int) -> CheckRecord:
    """Full encode/decode consistency plus the four-way count equality.

    Per weight: every rank-window member encodes to a colored partition of
    the same weight that passes conditions (i)-(iii) and decodes back to
    itself, so the encoding is an injection into the colored family; the
    member count equals that family's count, taken by head with
    :func:`~colorpartitions.families.colored_head_counts`, so the injection
    is onto; and the member count equals the restricted-product,
    theta-quotient, and multisum coefficients alike (the product leg drops
    out at 2r = M, where no product form exists).
    """
    return _bijection_record(
        params, n_max, families.rank_window_members_up_to(params, n_max)
    )


def _bijection_record(
    params: IdentityParams, n_max: int, members_by_weight: list[list[Partition]]
) -> CheckRecord:
    label = f"M={params.modulus} r={params.residue}"
    bosonic = series.bosonic_sum(params, n_max)
    fermionic = series.fermionic_multisum(params, n_max)
    series_legs = [("theta quotient", bosonic), ("multisum", fermionic)]
    if params.has_product_form:
        series_legs.insert(0, ("product", series.restricted_product(params, n_max)))
    colored = list(map(sum, zip(*families.colored_head_counts(params, n_max, n_max).values())))
    checked = 0
    for n in range(n_max + 1):
        members = members_by_weight[n]
        for p in members:
            member = color_map(p, params)
            checked += 1
            if sum(size for size, _ in member) != n:
                return _fail("bijection", label, n_max, checked, f"n={n}: {p} changes weight")
            try:
                decoded = inverse_map(member, params)
            except ValueError as exc:
                reason = str(exc).removeprefix("not decodable: ")
                note = f"n={n}: {p} not decodable: {reason}"
                return _fail("bijection", label, n_max, checked, note)
            if decoded != p:
                return _fail("bijection", label, n_max, checked, f"n={n}: {p} fails round trip")
        # The distinct members encode injectively (each decodes back to itself) into
        # the colored family of weight n, so the encoding is onto iff the counts agree.
        count = len(members)
        checked += 1
        if count != colored[n]:
            note = f"n={n}: encoded family differs from direct generation "
            note += f"({count} vs {colored[n]} members)"
            return _fail("bijection", label, n_max, checked, note)
        for name, form in series_legs:
            value = form[n]
            checked += 1
            if count != value:
                return _fail(
                    "bijection", label, n_max, checked, f"n={n}: {count} members vs {name} {value}"
                )
    return CheckRecord("bijection", label, f"n<={n_max}", checked, True)


def check_gordon(half_modulus: int, residue: int, n_max: int) -> CheckRecord:
    """Gordon-condition member counts against the restricted product."""
    product = series.restricted_product(IdentityParams(2 * half_modulus + 1, residue), n_max)
    counts = (len(families.gordon_members(half_modulus, residue, n)) for n in range(n_max + 1))
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
    head count under conditions (i)-(iii),
    :func:`~colorpartitions.families.colored_head_counts`, taken once for the
    largest box, whose per-head series are summed over the heads each size
    admits; the colored enumeration is its test oracle.  ``n_max`` bounds that
    count's weight and truncates the per-weight comparisons.  A ``size_max``
    that is not a nonnegative int raises ValueError.
    """
    series._check_order(size_max)
    parity = "odd" if params.is_odd else "even"
    label = f"{parity} k={params.half_modulus} r={params.residue}"
    # The box law reads only the largest part and bounds it by W + H - 1,
    # which grows with the size: the weight series of the members each head
    # heads, up to the largest box, serve every size.
    largest_top = _colored_top(*series.finitized_box(params, size_max))
    weight_max = _gap2_weight_bound(largest_top)
    if n_max is not None:
        weight_max = min(weight_max, max(n_max, 0))
    headed = families.colored_head_counts(params, weight_max, max_size=largest_top)
    checked = 0
    for size in range(size_max + 1):
        lhs = series.finitized_lhs(params, size)
        rhs = series.finitized_rhs(params, size)
        checked += 1
        if lhs != rhs:
            degree = series.first_difference(lhs.coefficients, rhs.coefficients)
            return _fail(
                "finitized",
                label,
                size_max,
                checked,
                f"size={size}: sides first differ at degree {degree}",
                span_prefix="N",
            )
        max_part, max_length = series.finitized_box(params, size)
        box = families.boxed_counts(params, max_part, max_length)
        admitted = [
            counts
            for head, counts in headed.items()
            if finitized_top_ok(head, params, size)
        ]
        colored = list(map(sum, zip(*admitted)))
        colored_top = _colored_top(max_part, max_length)
        top = max(lhs.degree, len(box) - 1, _gap2_weight_bound(colored_top))
        if n_max is not None:
            top = min(top, n_max)
        for n, expected in enumerate(lhs.padded(top)):
            from_box = box[n] if n < len(box) else 0
            from_colored = colored[n] if n < len(colored) else 0
            checked += 2
            for route, value in (("box count", from_box), ("top-part count", from_colored)):
                if value != expected:
                    return _fail(
                        "finitized",
                        label,
                        size_max,
                        checked,
                        f"size={size} n={n}: {route} {value} vs coefficient {expected}",
                        span_prefix="N",
                    )
    return CheckRecord("finitized", label, f"N<={size_max}", checked, True)


def _colored_top(max_part: int, max_length: int) -> int:
    # Largest colored part a box admits; an ill-formed box admits none.
    return max_part + max_length - 1 if min(max_part, max_length) >= 0 else 0


def _gap2_weight_bound(max_size: int) -> int:
    # Heaviest gap-2 partition with largest part max_size: max_size + (max_size-2) + ...
    if max_size <= 0:
        return 0
    steps = (max_size + 1) // 2
    return steps * (max_size - steps + 1)


def _fail(
    scope: str, label: str, bound: int, checked: int, note: str, span_prefix: str = "n"
) -> CheckRecord:
    return CheckRecord(scope, label, f"{span_prefix}<={bound}", checked, False, note)


def _valid_residues(modulus: int):
    return range(1, modulus // 2 + 1)


def verify_identity_grid(
    moduli=DEFAULT_MODULI,
    residues=None,
    n_max: int = DEFAULT_N_MAX,
    scope: str = "both",
) -> VerificationReport:
    """Count and/or bijection checks over a modulus grid.

    scope: "product_counts", "bijection", or "both".
    """
    if scope not in ("product_counts", "bijection", "both"):
        raise ValueError(f"unknown scope {scope!r}")
    records = []
    for modulus in moduli:
        cell_residues = (
            [r for r in residues if 2 * r <= modulus]
            if residues is not None
            else _valid_residues(modulus)
        )
        for residue in cell_residues:
            params = IdentityParams(modulus, residue)
            # One descent per cell serves both records.
            members = families.rank_window_members_up_to(params, n_max)
            if scope in ("product_counts", "both"):
                records.append(_product_counts_record(params, n_max, members))
            if scope in ("bijection", "both"):
                records.append(_bijection_record(params, n_max, members))
    return VerificationReport(f"{scope} grid", tuple(records))


def verify_gordon_grid(
    pairs=DEFAULT_GORDON_PAIRS, n_max: int = DEFAULT_GORDON_N_MAX
) -> VerificationReport:
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
        for half in halves:
            modulus = 2 * half + 1 if parity == "odd" else 2 * half
            size_max = odd_size_max if parity == "odd" else even_size_max
            cell_residues = (
                [r for r in residues if r <= half]
                if residues is not None
                else range(1, half + 1)
            )
            for residue in cell_residues:
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
