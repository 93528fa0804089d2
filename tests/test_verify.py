"""Verification harness: records, reports, grids, failure reporting."""

import pytest

from colorpartitions import IdentityParams
from colorpartitions.verify import (
    CheckRecord,
    VerificationReport,
    check_bijection,
    check_finitized,
    check_gordon,
    check_product_counts,
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


@pytest.mark.parametrize("delta", [-1, 1], ids=["lossy", "surplus"])
def test_bijection_detects_broken_enumerator(monkeypatch, delta):
    # Each member is checked to encode injectively; a colored count one short
    # (the encoding is not onto) or one over (the encoding misses a member)
    # must fail the count equality at that weight.
    from colorpartitions import families, verify

    real = families.colored_head_counts

    def broken(params, max_weight, max_size):
        headed = real(params, max_weight, max_size)
        counts = next(c for c in headed.values() if len(c) > 6 and c[6])
        counts[6] += delta
        return headed

    monkeypatch.setattr(verify.families, "colored_head_counts", broken)
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
    from colorpartitions import families, verify

    real = families.rank_window_members_up_to

    def lossy(params, max_weight):
        buckets = real(params, max_weight)
        buckets[6] = buckets[6][:-1]
        return buckets

    monkeypatch.setattr(verify.families, "rank_window_members_up_to", lossy)
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

    real = families.gordon_members

    def lossy(k, r, n):
        members = real(k, r, n)
        return members[1:] if n == 5 else members

    monkeypatch.setattr(verify.families, "gordon_members", lossy)
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
    from colorpartitions import families, verify

    real = families.colored_head_counts

    def lossy(params, max_weight, max_size):
        headed = real(params, max_weight, max_size)
        if max_weight >= 7:
            counts = next(counts for counts in headed.values() if counts[7])
            counts[7] -= 1
        return headed

    monkeypatch.setattr(verify.families, "colored_head_counts", lossy)
    record = check_finitized(IdentityParams(7, 2), 9)
    assert not record.ok
    assert "n=7: top-part count" in record.note


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


def test_theorem_grid_rejects_unknown_scope():
    with pytest.raises(ValueError):
        verify_identity_grid(scope="everything")


def test_checks_reject_negative_bound():
    # every check refuses a negative bound before any counting starts
    with pytest.raises(ValueError):
        check_bijection(IdentityParams(7, 1), -1)
    with pytest.raises(ValueError):
        check_product_counts(IdentityParams(8, 4), -1)
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
