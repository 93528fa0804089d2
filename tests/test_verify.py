"""Verification harness: records, reports, grids, failure reporting."""

import sys

import pytest

from colorpartitions import IdentityParams, families, kernels, verify
from colorpartitions.families import colored_head_counts, rank_window_members
from colorpartitions.series import (
    bosonic_sum,
    fermionic_multisum,
    finitized_box,
    restricted_product,
)
from colorpartitions.verify import (
    CheckRecord,
    VerificationReport,
    check_bijection,
    check_finitized,
    check_gordon,
    check_product_counts,
    finitized_top_ok,
    verify_all,
    verify_finitized_grid,
    verify_gordon_grid,
    verify_identity_grid,
)


def test_report_properties():
    good = CheckRecord("gordon", "k=2 r=1", "n<=10", 11, True)
    bad = CheckRecord("gordon", "k=2 r=2", "n<=10", 4, False, "n=3: 2 members vs 3")
    report = VerificationReport("demo", (good, bad, good))
    assert not report.passed
    assert report.first_failure is bad
    assert report.total_checked == 26

    clean = VerificationReport("demo", (good,))
    assert clean.passed
    assert clean.first_failure is None


def test_empty_report_passes():
    report = VerificationReport("empty")
    assert report.passed
    assert report.total_checked == 0


def test_product_counts_pass():
    record = check_product_counts(IdentityParams(7, 1), 14)
    assert record.ok
    assert record.scope == "product_counts"
    assert record.params == "M=7 r=1"
    assert record.span == "n<=14"
    assert record.checked == 15
    assert record.note == ""


def test_product_counts_half_modulus_note():
    # no product form at 2r = M; the record says what was checked instead
    record = check_product_counts(IdentityParams(8, 4), 14)
    assert record.ok
    assert "theta quotient" in record.note


def test_bijection_pass():
    for params in (IdentityParams(7, 1), IdentityParams(8, 3), IdentityParams(6, 3)):
        record = check_bijection(params, 12)
        assert record.ok, record.note
        assert record.checked > 13


def head_count_plus(weight, delta):
    """The packed head DP, ``delta`` added at ``weight`` to one head's count.

    The head is the first, smallest first, whose series is nonzero there;
    the change reaches its own series and its color's running sums from it
    on, so every reader of the DP sees the same miscount.
    """
    real = families._colored_head_counts

    def mutant(params, max_weight, max_size):
        bits, packed, columns = real(params, max_weight, max_size)
        if max_weight >= weight:
            limb = (1 << bits) - 1
            head = next(h for h, value in packed.items() if (value >> (bits * weight)) & limb)
            change = delta << (bits * weight)
            packed[head] += change
            for heads, sums in columns:
                if head in heads:
                    for i in range(heads.index(head) + 1, len(sums)):
                        sums[i] += change
        return bits, packed, columns

    return mutant


@pytest.mark.parametrize("delta", [-1, 1], ids=["lossy", "surplus"])
def test_bijection_detects_broken_enumerator(monkeypatch, delta):
    # Each member is checked to encode injectively; a colored count one short
    # (the encoding is not onto) or one over (the encoding misses a member)
    # must fail the count equality at that weight.
    monkeypatch.setattr(families, "_colored_head_counts", head_count_plus(6, delta))
    record = check_bijection(IdentityParams(7, 1), 10)
    assert not record.ok
    assert "n=6" in record.note
    assert "direct generation" in record.note


def test_verify_never_enumerates_the_colored_family(monkeypatch):
    # the colored side is counted by head; its enumerator is a test oracle only
    from colorpartitions import families

    def refuse(*args, **kwargs):
        raise AssertionError("verify enumerated the colored family")

    monkeypatch.setattr(families, "colored_members_up_to", refuse)
    assert verify_all(n_max=10).passed


def test_product_counts_detects_lossy_window_enumeration(monkeypatch):
    from colorpartitions import verify

    real = verify._members_by_top

    def lossy(modulus, residues, max_weight, **options):
        walked = real(modulus, residues, max_weight, **options)
        for counts, _ in walked.values():
            row = counts[6]
            row[next(index for index, count in enumerate(row) if count)] -= 1
        return walked

    # the one filing the grid and the single-cell checks share
    monkeypatch.setattr(verify, "_members_by_top", lossy)
    # the grid shares one enumeration per cell between both records
    report = verify_identity_grid(moduli=(7,), residues=(1,), n_max=10)
    assert [(r.scope, r.ok) for r in report.records] == [
        ("product_counts", False),
        ("bijection", False),
    ]
    counts, bijection = report.records
    assert counts.note.startswith("n=6: ")
    assert "direct generation" in bijection.note
    assert check_product_counts(IdentityParams(7, 1), 10) == counts
    assert check_bijection(IdentityParams(7, 1), 10) == bijection


def _product_counts_oracle(params, n_max):
    # member counts of one exact-weight descent per weight against the
    # closed form, stopping at the first mismatch
    label = f"M={params.modulus} r={params.residue}"
    if params.has_product_form:
        form_name, closed_form, note = "product", restricted_product(params, n_max), ""
    else:
        form_name, closed_form = "theta quotient", bosonic_sum(params, n_max)
        note = "2r = M: no product form, checked theta quotient"
    for n in range(n_max + 1):
        count = len(rank_window_members(params, n))
        if count != closed_form[n]:
            note = f"n={n}: {count} members vs {form_name} coefficient {closed_form[n]}"
            return CheckRecord("product_counts", label, f"n<={n_max}", n + 1, False, note)
    return CheckRecord("product_counts", label, f"n<={n_max}", n_max + 1, True, note)


def _bijection_oracle(params, n_max):
    # The per-cell loop: the public color_map and inverse_map on every
    # member of the cell, looked up at call time so patches reach them.
    from colorpartitions import coloring

    label = f"M={params.modulus} r={params.residue}"
    legs = [("theta quotient", bosonic_sum(params, n_max))]
    legs.append(("multisum", fermionic_multisum(params, n_max)))
    if params.has_product_form:
        legs.insert(0, ("product", restricted_product(params, n_max)))
    headed = colored_head_counts(params, n_max, n_max)
    colored = list(map(sum, zip(*headed.values())))

    def fail(checked, note):
        return CheckRecord("bijection", label, f"n<={n_max}", checked, False, note)

    checked = 0
    for n in range(n_max + 1):
        members = rank_window_members(params, n)
        for p in members:
            member = coloring.color_map(p, params)
            checked += 1
            if sum(size for size, _ in member) != n:
                return fail(checked, f"n={n}: {p} changes weight")
            try:
                decoded = coloring.inverse_map(member, params)
            except ValueError as exc:
                reason = str(exc).removeprefix("not decodable: ")
                return fail(checked, f"n={n}: {p} not decodable: {reason}")
            if decoded != p:
                return fail(checked, f"n={n}: {p} fails round trip")
        count = len(members)
        checked += 1
        if count != colored[n]:
            note = f"n={n}: encoded family differs from direct generation "
            return fail(checked, note + f"({count} vs {colored[n]} members)")
        for name, form in legs:
            checked += 1
            if count != form[n]:
                return fail(checked, f"n={n}: {count} members vs {name} {form[n]}")
    return CheckRecord("bijection", label, f"n<={n_max}", checked, True)


def _patch_everywhere(monkeypatch, name, replacement):
    # every binding of ``name`` in the package's modules
    from colorpartitions import coloring

    real = getattr(coloring, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("colorpartitions") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, replacement)


def _colors_plus_one(monkeypatch, min_size=1):
    from colorpartitions import coloring

    real = coloring.color_map

    def shifted(p, params):
        return tuple((size, color + (size >= min_size)) for size, color in real(p, params))

    _patch_everywhere(monkeypatch, "color_map", shifted)


def _decode_with(width_shift):
    def decode_part(size, color, residue):
        width = color + (size - residue) // 2 + 1 + width_shift(size)
        return width, size - width + 1

    return decode_part


def _width_off_by_one(monkeypatch):
    _patch_everywhere(monkeypatch, "_decode_part", _decode_with(lambda size: size >= 7))


def _big_colors_plus_one_both_ways(monkeypatch):
    # the decode undoes the shift, so members pass (i), (ii) and the round
    # trip, and fail only the color range or (iii), the checks that read M
    _colors_plus_one(monkeypatch, min_size=7)
    _patch_everywhere(monkeypatch, "_decode_part", _decode_with(lambda size: -(size >= 7)))


def _big_colors_minus_one_both_ways(monkeypatch):
    # colors 1 become 0 at size >= 7 and the decode undoes the shift, so
    # only the color floor sees them
    from colorpartitions import coloring

    real = coloring.color_map
    shifted = lambda p, params: tuple(
        (size, color - (size >= 7)) for size, color in real(p, params)
    )
    _patch_everywhere(monkeypatch, "color_map", shifted)
    _patch_everywhere(monkeypatch, "_decode_part", _decode_with(lambda size: size >= 7))


def _not_prefix_consistent(monkeypatch):
    # encodings of two or more parts and weight >= 9 carry a wrong first
    # color while their last part is right: they no longer extend their
    # parent's encoding, which is right, and fail only the public round trip
    from colorpartitions import coloring

    real = coloring.color_map

    def shifted(p, params):
        member = real(p, params)
        if len(member) < 2 or sum(p) < 9:
            return member
        (size, color), *rest = member
        return ((size, color + 1), *rest)

    _patch_everywhere(monkeypatch, "color_map", shifted)


def _big_sizes_plus_two_both_ways(monkeypatch):
    # the decode undoes the shift, so only the weight check sees it
    from colorpartitions import coloring

    real, decode = coloring.color_map, coloring._decode_part
    shifted = lambda p, params: tuple(
        (size + 2 * (size >= 7), color) for size, color in real(p, params)
    )
    _patch_everywhere(monkeypatch, "color_map", shifted)
    unshifted = lambda size, color, r: decode(size - 2 * (size >= 9), color, r)
    _patch_everywhere(monkeypatch, "_decode_part", unshifted)


def _size_ok_too_strict(monkeypatch):
    # (i) refuses the parts of size 7, in the decode and the head count alike
    _patch_everywhere(monkeypatch, "_size_ok", lambda size, rank: size > abs(rank) and size != 7)


def _gap_ok_too_strict(monkeypatch):
    # (ii) refuses a part of size 3 after any other
    from colorpartitions import coloring

    real = coloring._gap_ok
    stricter = lambda size_a, color_a, size_b, color_b, params: size_b != 3 and real(
        size_a, color_a, size_b, color_b, params
    )
    _patch_everywhere(monkeypatch, "_gap_ok", stricter)


def _float_sizes_before_the_last(monkeypatch):
    # equal as tuples to the right encoding, so only a type check on every
    # part, the parent's included, tells them apart
    from colorpartitions import coloring

    real = coloring.color_map

    def floated(p, params):
        member = real(p, params)
        if sum(p) < 9:
            return member
        return tuple((float(size), color) for size, color in member[:-1]) + member[-1:]

    _patch_everywhere(monkeypatch, "color_map", floated)


def _empty_member_encodes_a_part(monkeypatch):
    # the empty member is a suspect, so the descent certifies no chain and
    # every member is judged by the public round trip
    from colorpartitions import coloring

    real = coloring.color_map
    encode = lambda p, params: real(p, params) if p else ((1, 1),)
    _patch_everywhere(monkeypatch, "color_map", encode)


@pytest.mark.parametrize(
    "mutant",
    [
        None,
        _colors_plus_one,
        _width_off_by_one,
        _big_colors_plus_one_both_ways,
        _big_colors_minus_one_both_ways,
        _not_prefix_consistent,
        _float_sizes_before_the_last,
        _big_sizes_plus_two_both_ways,
        _size_ok_too_strict,
        _gap_ok_too_strict,
        _empty_member_encodes_a_part,
    ],
)
def test_grid_records_match_the_per_cell_loop(monkeypatch, mutant):
    # one round trip per member per residue, checked one chain node at a
    # time, gives every record, failures worded at the cell's own params
    # included, the per-cell loop gives, also under mutants that ignore the
    # modulus or break the extension of the parent's encoding
    if mutant is not None:
        mutant(monkeypatch)
    report = verify_identity_grid(moduli=(5, 6, 7, 8, 9), n_max=14)
    expected = []
    for modulus in (5, 6, 7, 8, 9):
        for residue in range(1, modulus // 2 + 1):
            params = IdentityParams(modulus, residue)
            expected += [_product_counts_oracle(params, 14), _bijection_oracle(params, 14)]
    assert report.records == tuple(expected)
    assert report.passed == (mutant is None)


def test_one_misencoded_residue_fails_only_its_bijection_records(monkeypatch):
    # the shared walk certifies each residue on its own: a color_map that
    # mis-encodes only r = 2 fails exactly the r = 2 bijection records, each
    # the one the per-cell loop gives, and every other record passes
    from colorpartitions import coloring

    real = coloring.color_map

    def encode(p, params):
        member = real(p, params)
        if params.residue != 2:
            return member
        return tuple((size, color + (size >= 5)) for size, color in member)

    _patch_everywhere(monkeypatch, "color_map", encode)
    moduli = (4, 5, 6, 7, 8, 9)
    report = verify_identity_grid(moduli=moduli, n_max=14)
    expected = []
    for modulus in moduli:
        for residue in range(1, modulus // 2 + 1):
            params = IdentityParams(modulus, residue)
            expected += [_product_counts_oracle(params, 14), _bijection_oracle(params, 14)]
    assert report.records == tuple(expected)
    failed = [(r.scope, r.params) for r in report.records if not r.ok]
    assert failed == [("bijection", f"M={m} r=2") for m in moduli]


def test_counts_scope_encodes_no_member(monkeypatch):
    # the count records read only the runs' lengths, so the counts-only grid
    # files rows without calling the encoding, and its records are those of
    # the full grid
    from colorpartitions import verify

    both = verify_identity_grid(n_max=20)

    def refuse(*args):
        raise AssertionError("the counts scope encoded a member")

    monkeypatch.setattr(verify, "color_map", refuse)
    report = verify_identity_grid(n_max=20, scope="product_counts")
    assert report.passed and len(report.records) == 18
    assert report.records == tuple(r for r in both.records if r.scope == "product_counts")
    assert check_product_counts(IdentityParams(9, 4), 20) == report.records[-1]


def test_part_checks_are_kept_for_one_descent_only(monkeypatch):
    # a predicate patched between two runs reaches the second run's records,
    # so no part check is remembered from the first
    moduli = (7, 8, 9)
    assert verify_identity_grid(moduli=moduli, n_max=12).passed
    _gap_ok_too_strict(monkeypatch)
    report = verify_identity_grid(moduli=moduli, n_max=12)
    expected = []
    for modulus in moduli:
        for residue in range(1, modulus // 2 + 1):
            params = IdentityParams(modulus, residue)
            expected += [_product_counts_oracle(params, 12), _bijection_oracle(params, 12)]
    assert report.records == tuple(expected)
    assert not report.passed


def test_grid_refuses_non_int_modulus_or_residue_before_any_work(monkeypatch):
    from colorpartitions import verify

    def refuse(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(verify, "_members_by_top", refuse)
    for moduli in ((5, 7.0), (True,), ("7",)):
        with pytest.raises(ValueError, match=r"modulus must be an int, got "):
            verify_identity_grid(moduli=moduli)
    for residues in ((1, 1.5), (False,)):
        with pytest.raises(ValueError, match=r"residue must be an int, got "):
            verify_identity_grid(moduli=(9,), residues=residues)
    # and a cell that is no identity, among valid ones, before the descent
    with pytest.raises(ValueError, match="modulus must be >= 3"):
        verify_identity_grid(moduli=(9, 2))


def test_bijection_reports_undecodable_member(monkeypatch):
    from colorpartitions import verify

    real = verify.color_map
    shifted = lambda p, params: tuple(  # every color lands past the palette
        (size, color + params.color_count) for size, color in real(p, params)
    )
    monkeypatch.setattr(verify, "color_map", shifted)
    record = check_bijection(IdentityParams(7, 1), 6)
    assert not record.ok
    assert record.note == (
        "n=2: (2,) not decodable: color 3 at part 1 outside 1..2 for modulus 7"
    )


def test_gordon_pass():
    record = check_gordon(2, 2, 16)
    assert record.ok
    assert record.params == "k=2 r=2"


def test_gordon_detects_missing_member(monkeypatch):
    from colorpartitions import families, verify

    real = families.frequency_counts

    def lossy(params, max_weight):
        counts = real(params, max_weight)
        counts[5] -= 1
        return counts

    # the frequency transfer matrix is the route check_gordon counts by
    monkeypatch.setattr(verify.families, "frequency_counts", lossy)
    record = check_gordon(2, 1, 10)
    assert not record.ok
    assert "n=5" in record.note


def test_finitized_pass_odd_and_even():
    odd = check_finitized(IdentityParams(5, 2), 7)
    assert odd.ok, odd.note
    assert odd.params == "odd k=2 r=2"
    assert odd.span == "N<=7"
    even = check_finitized(IdentityParams(8, 3), 5)
    assert even.ok, even.note
    assert even.params == "even k=4 r=3"


def test_finitized_detects_lossy_colored_enumeration(monkeypatch):
    monkeypatch.setattr(families, "_colored_head_counts", head_count_plus(7, -1))
    record = check_finitized(IdentityParams(7, 2), 9)
    assert not record.ok
    assert "n=7: top-part count" in record.note


def colored_side_by_filter(params, size, max_weight, max_size):
    """The colored side of one size by the per-head filter: the oracle of the
    running sums.  Every head's series (:func:`colored_head_counts`) that
    ``finitized_top_ok`` admits, summed weight by weight."""
    headed = colored_head_counts(params, max_weight, max_size)
    admitted = [counts for head, counts in headed.items() if finitized_top_ok(head, params, size)]
    return list(map(sum, zip(*admitted))) or [0] * (max_weight + 1)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_admitted_running_sums_match_the_per_head_filter(parity):
    # k = 2..6, every residue, every size <= 14: the bisected running sums
    # against the filter over every head, heads and weights up to the
    # size-14 box's as in check_finitized
    ill_formed = 0
    for k in range(2, 7):
        for r in range(1, k + 1):
            params = IdentityParams(2 * k + 1 if parity == "odd" else 2 * k, r)
            max_size = verify._colored_top(*finitized_box(params, 14))
            weight = verify._gap2_weight_bound(max_size)
            bits, packed, columns = families._colored_head_counts(params, weight, max_size)
            for size in range(15):
                admitted = verify._admitted_series(params, size, packed[()], columns)
                expected = colored_side_by_filter(params, size, weight, max_size)
                assert kernels._unpack(admitted, bits, weight + 1) == expected, (params, size)
                if min(finitized_box(params, size)) < 0:  # admits nothing
                    ill_formed += 1
                    assert admitted == 0 and not any(expected), (params, size)
    # odd boxes below size k - r have a negative side; even boxes never do
    assert ill_formed if parity == "odd" else not ill_formed


def test_finitized_detects_wrong_box_count(monkeypatch):
    from colorpartitions import families, verify

    real = families.boxed_counts

    def off_by_one(params, max_part, max_length, cap=None):
        counts = real(params, max_part, max_length, cap)
        if len(counts) > 5:
            counts[5] += 1
        return counts

    monkeypatch.setattr(verify.families, "boxed_counts", off_by_one)
    record = check_finitized(IdentityParams(8, 3), 5)
    assert not record.ok
    assert "n=5: box count" in record.note


def test_finitized_identities_reach_k8():
    # both parities, every residue, k = 5..8: 52 cells
    report = verify_finitized_grid(
        halves=(5, 6, 7, 8), odd_size_max=8, even_size_max=8
    )
    assert report.passed, report.first_failure
    assert len(report.records) == 52


def test_finitized_size_zero_only():
    record = check_finitized(IdentityParams(7, 3), 0)
    assert record.ok
    assert record.checked >= 1


def test_theorem_grid_small():
    report = verify_identity_grid(moduli=(5, 7), n_max=10)
    assert report.passed
    # two residues for M=5, three for M=7, two scopes each
    assert len(report.records) == 10
    assert {r.scope for r in report.records} == {"product_counts", "bijection"}


def test_theorem_grid_residue_filter():
    report = verify_identity_grid(
        moduli=(5, 8), residues=(3,), n_max=8, scope="product_counts"
    )
    # r=3 is out of range for M=5, in range for M=8
    assert [r.params for r in report.records] == ["M=8 r=3"]


def test_theorem_grid_order_matches_per_cell_checks():
    # one descent per residue, yet the records keep the caller's order:
    # moduli as given, repeats included, then residues as given
    report = verify_identity_grid(moduli=(9, 5, 9), residues=(2, 1), n_max=8)
    expected = []
    for modulus in (9, 5, 9):
        for residue in (2, 1):
            params = IdentityParams(modulus, residue)
            expected.append(check_product_counts(params, 8))
            expected.append(check_bijection(params, 8))
    assert [(r.scope, r.params, r.checked, r.ok) for r in report.records] == [
        (r.scope, r.params, r.checked, r.ok) for r in expected
    ]
    assert report.records == tuple(expected)


def test_theorem_grid_rejects_unknown_scope():
    with pytest.raises(ValueError):
        verify_identity_grid(scope="everything")


def test_checks_reject_negative_bound():
    # every check refuses a negative bound before any counting starts, under
    # the name the caller passed
    for check in (
        lambda: check_bijection(IdentityParams(7, 1), -1),
        lambda: check_product_counts(IdentityParams(7, 1), -1),
        lambda: check_product_counts(IdentityParams(8, 4), -1),
        lambda: check_gordon(2, 1, -1),
        lambda: verify_identity_grid(n_max=-1),
        lambda: verify_identity_grid(moduli=(), n_max=-1),
        lambda: verify_gordon_grid(n_max=-1),
        lambda: verify_gordon_grid(pairs=(), n_max=-1),
    ):
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            check()
    with pytest.raises(ValueError, match="n_max must be an int"):
        check_bijection(IdentityParams(7, 1), 2.5)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        check_finitized(IdentityParams(7, 2), -1)
    # and a bound that is not an int (a bool would count as 0 or 1)
    for bound in (True, 2.0, "3"):
        for check in (
            lambda b: check_bijection(IdentityParams(7, 1), b),
            lambda b: check_product_counts(IdentityParams(8, 4), b),
            lambda b: check_finitized(IdentityParams(7, 2), b),
            lambda b: check_gordon(2, 1, b),
        ):
            with pytest.raises(ValueError, match="must be an int"):
                check(bound)


def test_finitized_validates_n_max():
    # n_max is refused under its own name unless it is a nonnegative int: a
    # negative bound would compare no weight and a fractional one a truncated
    # range, and a passing record would hide that
    params = IdentityParams(7, 1)
    for n_max in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="n_max"):
            check_finitized(params, 3, n_max=n_max)
    assert check_finitized(params, 3, n_max=None).ok
    assert check_finitized(params, 3, n_max=0).ok


def test_gordon_grid_default_pairs():
    report = verify_gordon_grid(n_max=12)
    assert report.passed
    assert len(report.records) == 5


def test_finitized_grid_small():
    report = verify_finitized_grid(
        halves=(2,), odd_size_max=6, even_size_max=5, n_max=12
    )
    assert report.passed, report.first_failure
    assert [r.params for r in report.records] == [
        "odd k=2 r=1",
        "odd k=2 r=2",
        "even k=2 r=1",
        "even k=2 r=2",
    ]


def test_verify_all_merges_scopes():
    report = verify_all(
        n_max=8, gordon_n_max=8, odd_size_max=3, even_size_max=3
    )
    assert report.passed, report.first_failure
    scopes = {r.scope for r in report.records}
    assert scopes == {"product_counts", "bijection", "gordon", "finitized"}
