"""q-series engine: the coefficient type, closed forms, and the finitized identities.

The Gaussian-binomial oracle is the Pascal-style recurrence
gauss(a, b) = gauss(a-1, b-1) + q^b * gauss(a-1, b), which never touches the
library's multiply/divide path.  The identities below combine coefficient
tuples with the local helpers, not with library arithmetic.
"""

from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from colorpartitions import (
    IdentityParams,
    TruncatedSeries,
    bosonic_sum,
    fermionic_multisum,
    finitized_box,
    finitized_lhs,
    finitized_rhs,
    gaussian_binomial,
    partition_series,
    restricted_product,
)
from colorpartitions.families import boxed_counts
from colorpartitions.series import (
    even_offset,
    first_difference,
    odd_offset,
)


def shifted_sum(left, right, shift):
    """left + q^shift * right on coefficient tuples, trailing zeros stripped."""
    shifted = (0,) * shift + tuple(right)
    size = max(len(left), len(shifted))
    out = [
        (left[t] if t < len(left) else 0) + (shifted[t] if t < len(shifted) else 0)
        for t in range(size)
    ]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def truncated_product(left, right, order):
    """Product of two coefficient sequences, coefficients 0..order."""
    out = [0] * (order + 1)
    for i, a in enumerate(left[: order + 1]):
        for j, b in enumerate(right[: order + 1 - i]):
            out[i + j] += a * b
    return tuple(out)


def inflate(coefficients, base):
    """Substitute q -> q^base in a coefficient tuple."""
    out = [0] * ((len(coefficients) - 1) * base + 1) if coefficients else []
    out[::base] = coefficients
    return tuple(out)


@lru_cache(maxsize=None)
def pascal_gauss(a, b):
    """Recurrence oracle for the Gaussian binomial, as a coefficient tuple."""
    if b < 0 or b > a:
        return ()
    if a == 0:
        return (1,)
    return shifted_sum(pascal_gauss(a - 1, b - 1), pascal_gauss(a - 1, b), b)


def geometric_factor(m, order):
    """The polynomial 1 - q^m as coefficients 0..order."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    if m <= order:
        coeffs[m] = -1
    return tuple(coeffs)


# ------------------------------------------------------------ TruncatedSeries


def test_series_constructor_takes_exact_ints():
    assert TruncatedSeries((1, 0, 0)).coefficients == (1, 0, 0)
    for bad in ([1.7, "3"], [1, 0.0], [False], [1, True]):
        with pytest.raises(ValueError):
            TruncatedSeries(bad)


def test_qpolynomial_normalizes_trailing_zeros():
    # a series doubles as a polynomial: trailing zeros do not count toward its
    # degree, and the empty tuple is the zero polynomial
    assert TruncatedSeries((1, 0, 0)).degree == 0
    assert TruncatedSeries((0, 3)).degree == 1
    assert TruncatedSeries(()).coefficients == ()
    assert TruncatedSeries().degree == -1
    assert TruncatedSeries((0, 0)).degree == -1
    assert TruncatedSeries(()).padded(2) == [0, 0, 0]
    assert TruncatedSeries((1, 2, 3)).padded(1) == [1, 2]
    # coefficients are exact ints: nothing is coerced, bools included
    for bad in ([0.5], [1, 2.0], ["3"], [True], [1, False]):
        with pytest.raises(ValueError):
            TruncatedSeries(bad)


def test_partition_series_low_coefficients():
    # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
    assert partition_series(10).coefficients == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


# ---------------------------------------------------------- Gaussian binomial


def test_gauss_frozen_values():
    assert gaussian_binomial(2, 1).coefficients == (1, 1)
    assert gaussian_binomial(4, 2).coefficients == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 1).coefficients == (1, 1, 1)
    assert gaussian_binomial(0, 0).coefficients == (1,)
    assert gaussian_binomial(3, 5).coefficients == ()
    assert gaussian_binomial(3, -1).coefficients == ()


def test_gauss_matches_recurrence_oracle():
    for a in range(31):
        for b in range(-1, a + 2):
            expected = pascal_gauss(a, b)
            for base in (1, 2, 3):
                coeffs = gaussian_binomial(a, b, base).coefficients
                assert coeffs[::base] == expected, (a, b, base)
                assert not any(c for i, c in enumerate(coeffs) if i % base), (a, b, base)


def test_gauss_rejects_nonpositive_base():
    for base in (0, -1):
        with pytest.raises(ValueError, match="base"):
            gaussian_binomial(4, 2, base)


def test_gauss_rejects_non_int_arguments():
    gaussian_binomial(1, 1)  # a cached (1, 1) must not answer (True, 1)
    for bad in (True, 2.0, "3"):
        for args, name in (((bad, 1), "a"), ((2, bad), "b"), ((2, 1, bad), "base")):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                gaussian_binomial(*args)


def test_gauss_symmetry_and_degree():
    for a in range(1, 9):
        for b in range(a + 1):
            g = gaussian_binomial(a, b)
            assert g == gaussian_binomial(a, a - b)
            assert g.degree == b * (a - b)


def test_gauss_at_one_is_binomial():
    from math import comb

    for a in range(9):
        for b in range(a + 1):
            assert sum(gaussian_binomial(a, b).coefficients) == comb(a, b)


def test_gauss_base_inflation():
    assert gaussian_binomial(2, 1, base=2).coefficients == (1, 0, 1)
    assert gaussian_binomial(4, 2, base=2).coefficients == inflate(
        gaussian_binomial(4, 2).coefficients, 2
    )


# ------------------------------------------------------------- offset tables


def test_offset_tables_match_closed_form():
    # the even-modulus offset rows for k = 2..6, top to bottom
    expected_rows = {
        2: ((), ()),
        3: ((1,), (1,), (0,)),
        4: ((2, 1), (2, 1), (1, 1), (0, 0)),
        5: ((3, 2, 1), (3, 2, 1), (2, 2, 1), (1, 1, 1), (0, 0, 0)),
        6: (
            (4, 3, 2, 1),
            (4, 3, 2, 1),
            (3, 3, 2, 1),
            (2, 2, 2, 1),
            (1, 1, 1, 1),
            (0, 0, 0, 0),
        ),
    }
    for k, rows in expected_rows.items():
        assert len(rows) == k
        for i, row in enumerate(rows, start=1):
            assert row == tuple(even_offset(k, i, j) for j in range(1, k - 1))


def test_offset_closed_form_beyond_tables():
    assert even_offset(7, 1, 1) == 5
    assert even_offset(7, 3, 2) == 4
    assert even_offset(7, 7, 3) == 0
    assert even_offset(7, 6, 1) == 1


def test_odd_offsets():
    # row r of the upper-triangular pattern: 0 ... 0 1 2 ... (k-r)
    assert [odd_offset(4, 1, j) for j in (1, 2, 3)] == [1, 2, 3]
    assert [odd_offset(4, 2, j) for j in (1, 2, 3)] == [0, 1, 2]
    assert [odd_offset(4, 4, j) for j in (1, 2, 3)] == [0, 0, 0]
    with pytest.raises(ValueError):
        odd_offset(4, 5, 1)
    with pytest.raises(ValueError):
        even_offset(4, 1, 3)


# ------------------------------------------------------------- closed forms


def test_restricted_product_frozen_example():
    assert restricted_product(IdentityParams(5, 2), 4).coefficients == (1, 1, 1, 1, 2)


def test_restricted_product_completion():
    # multiplying back the excluded residue classes restores all partitions
    order = 30
    for m, r in ((5, 2), (7, 1), (8, 3), (4, 1), (9, 4)):
        series = restricted_product(IdentityParams(m, r), order)
        excluded = sorted({0, r % m, (m - r) % m})
        # product over included classes times product over excluded classes
        # equals the unrestricted partition series
        complement = (1,) + (0,) * order
        for j in range(1, order + 1):
            if j % m in excluded:
                complement = truncated_product(complement, _geometric_inverse(j, order), order)
        product = truncated_product(series.coefficients, complement, order)
        assert product == partition_series(order).coefficients


def _geometric_inverse(m, order):
    return tuple(1 if i % m == 0 else 0 for i in range(order + 1))


def test_bosonic_equals_product_where_product_form_exists():
    order = 25
    for m in range(3, 10):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            if not params.has_product_form:
                continue
            assert (
                bosonic_sum(params, order).coefficients
                == restricted_product(params, order).coefficients
            )


def test_bosonic_at_half_modulus_keeps_theta_factor():
    # at 2r = M the theta quotient equals the avoided-residue product times
    # the leftover numerator (1-q^(M/2))(1-q^(3M/2))...
    order = 24
    for m in (4, 6, 8):
        params = IdentityParams(m, m // 2)
        expected = restricted_product(params, order).coefficients
        for n in range(order + 1):
            if n % m == m // 2:
                expected = truncated_product(expected, geometric_factor(n, order), order)
        assert bosonic_sum(params, order).coefficients == expected


def test_fermionic_trivial_and_small():
    assert fermionic_multisum(IdentityParams(3, 1), 12).coefficients == (1,) + (0,) * 12
    # (5,2) is the classic single-sum with quadratic exponents
    assert fermionic_multisum(IdentityParams(5, 2), 10).coefficients == (
        1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6,
    )


def test_fermionic_double_sum_reduction():
    params = IdentityParams(7, 3)
    assert (
        fermionic_multisum(params, 20).coefficients
        == restricted_product(params, 20).coefficients
    )


def test_three_forms_agree_on_grid():
    # The multisum's prefix recurrences against the theta quotient, which
    # shares no code with them beyond the geometric division.
    order = 120
    for m in range(3, 16):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            bos = bosonic_sum(params, order)
            ferm = fermionic_multisum(params, order)
            assert first_difference(bos.coefficients, ferm.coefficients) is None


# -------------------------------------------------------- finitized identity


def test_finitized_box_parameters():
    assert finitized_box(IdentityParams(7, 1), 12) == (7, 5)
    assert finitized_box(IdentityParams(5, 2), 9) == (5, 4)
    assert finitized_box(IdentityParams(8, 3), 10) == (11, 10)
    # odd case can go negative at tiny sizes; the caller treats that as an
    # empty family
    assert finitized_box(IdentityParams(7, 1), 0) == (1, -1)


def test_finitized_identity_small_grid():
    for k in range(1, 7):
        for r in range(1, k + 1):
            for m in (2 * k + 1, 2 * k):
                if m < 4:
                    continue
                params = IdentityParams(m, r)
                for size in range(8):
                    lhs = finitized_lhs(params, size)
                    rhs = finitized_rhs(params, size)
                    assert lhs == rhs, (m, r, size)


def test_finitized_lhs_counts_its_box():
    # the one alternating side is the box's generating polynomial, for both
    # parities and every residue through k = 6 (the verify grid stops at 4)
    for m in range(3, 14):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size in range(11):
                c = boxed_counts(params, *finitized_box(params, size))
                lhs = finitized_lhs(params, size)
                assert lhs.degree < len(c), (m, r, size)
                assert lhs.padded(len(c) - 1) == c, (m, r, size)


def test_finitized_odd_k1_collapses_to_single_binomial_sum():
    # k=1 has no multisum variables at all: the right side is the constant 1
    params = IdentityParams(3, 1)
    for size in range(10):
        assert finitized_rhs(params, size).coefficients == (1,)
        assert finitized_lhs(params, size).coefficients == (1,)


def test_finitized_stabilizes_to_infinite_series():
    # low-order coefficients of the polynomial match the infinite closed form
    for m, r in ((5, 2), (7, 1), (4, 1), (6, 2), (8, 4)):
        params = IdentityParams(m, r)
        infinite = bosonic_sum(params, 10)
        poly = finitized_lhs(params, 20 if params.is_odd else 12)
        head = tuple(poly.padded(10))
        assert head == infinite.coefficients


def test_finitized_rejects_bad_parameters():
    with pytest.raises(ValueError):
        finitized_lhs(IdentityParams(5, 2), -1)


@pytest.mark.parametrize(
    "build",
    [
        partition_series,
        lambda order: restricted_product(IdentityParams(7, 1), order),
        lambda order: bosonic_sum(IdentityParams(7, 1), order),
        lambda order: bosonic_sum(IdentityParams(8, 4), order),
        lambda order: fermionic_multisum(IdentityParams(7, 1), order),
        lambda order: finitized_lhs(IdentityParams(7, 1), order),
        lambda order: finitized_rhs(IdentityParams(7, 1), order),
        lambda order: finitized_rhs(IdentityParams(8, 3), order),
    ],
)
def test_series_builders_reject_negative_order(build):
    # every builder refuses a negative order, and any order that is not an
    # int (a bool would truncate at order 0 or 1), the same way
    with pytest.raises(ValueError, match="order must be nonnegative"):
        build(-1)
    for order in (True, 2.0, "3"):
        with pytest.raises(ValueError, match="order must be an int"):
            build(order)


def test_first_difference():
    assert first_difference((1, 2), (1, 2)) is None
    assert first_difference((1, 2), (1, 3)) == 1
    assert first_difference((1,), (1, 0, 5)) == 2


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_gauss_pascal_identity(a, b):
    # gauss(a+1, b+1) = gauss(a, b) + q^(b+1) gauss(a, b+1)
    lhs = gaussian_binomial(a + 1, b + 1).coefficients
    rhs = shifted_sum(
        gaussian_binomial(a, b).coefficients, gaussian_binomial(a, b + 1).coefficients, b + 1
    )
    assert lhs == rhs
