"""q-series engine: the coefficient type, closed forms, and the finitized identities.

The Gaussian-binomial oracle is the Pascal-style recurrence
gauss(a, b) = gauss(a-1, b-1) + q^b * gauss(a-1, b), which never touches the
library's multiply/divide path.  The identities below combine coefficient
tuples with the local helpers, not with library arithmetic.
"""

import tracemalloc
from functools import lru_cache
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

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
from colorpartitions import families, kernels, series, verify
from colorpartitions.families import boxed_counts
from colorpartitions.kernels import _unpack
from colorpartitions.verify import CheckRecord, check_finitized
from colorpartitions.series import even_offset, first_difference, odd_offset


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
    for a in range(9):
        for b in range(a + 1):
            assert sum(gaussian_binomial(a, b).coefficients) == comb(a, b)


def test_gauss_base_inflation():
    assert gaussian_binomial(2, 1, base=2).coefficients == (1, 0, 1)
    assert gaussian_binomial(4, 2, base=2).coefficients == inflate(
        gaussian_binomial(4, 2).coefficients, 2
    )


def _read_as(packed, bits, expected):
    # the packed int is the list at q = 2^bits, at any width; where every
    # coefficient fits a limb, it also unpacks to the list
    assert packed == sum(c << (bits * t) for t, c in enumerate(expected))
    if max(expected, default=0) >> bits == 0:
        assert tuple(_unpack(packed, bits, len(expected))) == expected


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 70),
    reads=st.lists(
        st.integers(0, 40).flatmap(lambda a: st.tuples(st.just(a), st.integers(-1, a + 1)))
    ),
)
@example(bits=1, reads=[(40, 20), (0, 0), (1, 1), (39, 40)])
def test_binomial_table_matches_the_list_builder(bits, reads):
    # Reads in any order from one table per width grow it out of order.
    # Each entry is the list-built binomial packed, beside its coefficient
    # sum C(a, b), and the table at width 2B read at width B is the binomial
    # in q^2.
    plain, wide = [], []
    for a, b in reads:
        packed, bound = series._gaussian_binomial(plain, a, b, bits)
        _read_as(packed, bits, gaussian_binomial(a, b).coefficients)
        assert bound == (comb(a, b) if b >= 0 else 0), (a, b)
        packed, bound = series._gaussian_binomial(wide, a, b, 2 * bits)
        _read_as(packed, bits, gaussian_binomial(a, b, 2).coefficients)
        assert bound == (comb(a, b) if b >= 0 else 0), (a, b)


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


def theta_quotient_by_division(params, order):
    """The theta quotient by lists: the theta series, term by term, divided
    in place by 1 - q^n for every n <= order."""
    theta = [0] * (order + 1)
    theta[0] = 1
    j = 1
    while True:
        sign = -1 if j % 2 else 1
        plus = series._theta_exponent(params, j)
        minus = series._theta_exponent(params, -j)
        if plus > order and minus > order:
            break
        if plus <= order:
            theta[plus] += sign
        if minus <= order:  # at 2r = M, minus == plus and both count
            theta[minus] += sign
        j += 1
    for n in range(1, order + 1):
        for i in range(n, order + 1):
            theta[i] += theta[i - n]
    return tuple(theta)


def test_bosonic_matches_the_division_oracle():
    # Every modulus through 40, every residue (each 2r = M cell among them)
    # and every order through 150.  The division is causal, so the oracle at
    # order 150 truncated to n + 1 coefficients is the oracle at order n.
    top = 150
    for m in range(3, 41):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            expected = theta_quotient_by_division(params, top)
            for order in range(top + 1):
                assert bosonic_sum(params, order).coefficients == expected[: order + 1], (
                    m, r, order
                )
    # the cell where merging the j and -j terms first shows
    assert bosonic_sum(IdentityParams(4, 2), 2).coefficients == (1, 1, 0)


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


def multisum_tuples(length, fits, prefix=()):
    """Weakly decreasing nonnegative tuples of ``length`` values, one at a time.

    Every prefix must pass ``fits``, which is monotone in the last value, so
    each position stops at its first rejection; length 0 yields ().
    """
    if len(prefix) == length:
        yield prefix
        return
    value = 0
    while (not prefix or value <= prefix[-1]) and fits(prefix + (value,)):
        yield from multisum_tuples(length, fits, prefix + (value,))
        value += 1


def chain_steps(params, values):
    """(j, n_j - n_{j+1}, base) for j = 1..k-1 with n_k = 0.

    The base is 2 (q -> q^2) only at the last step of an even modulus.
    """
    k = params.half_modulus
    padded = values + (0,)
    for j in range(1, k):
        base = 2 if j == k - 1 and not params.is_odd else 1
        yield j, padded[j - 1] - padded[j], base


def multisum_by_tuples(params, order):
    """Definition-level multisum: one term per tuple, one factor per step.

    Each weakly decreasing tuple (n_1, ..., n_{k-1}) with square sum <= order
    contributes q^(n_1^2 + ... + n_{k-1}^2 + n_r + ... + n_{k-1}) times
    1/(q^b; q^b)_gap for each step of the chain, multiplied out as truncated
    series products.
    """
    total = [0] * (order + 1)
    squares_fit = lambda prefix: sum(v * v for v in prefix) <= order
    for values in multisum_tuples(params.half_modulus - 1, squares_fit):
        exponent = sum(v * v for v in values) + sum(values[params.residue - 1 :])
        if exponent > order:
            continue
        term = (1,) + (0,) * (order - exponent)
        for _j, gap, base in chain_steps(params, values):
            for t in range(1, gap + 1):
                inverse = _geometric_inverse(base * t, order - exponent)
                term = truncated_product(term, inverse, order - exponent)
        for i, c in enumerate(term, exponent):
            total[i] += c
    return tuple(total)


def test_multisum_levels_match_tuple_oracle():
    # The nested Horner levels against the per-tuple definition, for every
    # residue through M = 15: M = 3 (no index), every 2r = M cell and the
    # even moduli's base-2 last step.  Truncating the order-61 oracle gives
    # the oracle at each lower order.
    for m in range(3, 16):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            oracle = multisum_by_tuples(params, 61)
            for order in (0, 1, 5, 30, 61):
                levels = fermionic_multisum(params, order).coefficients
                assert levels == oracle[: order + 1], (m, r, order)


def test_multisum_skips_levels_above_the_order():
    # A level j above the order admits only n_j = 0, so cells with more
    # levels than the order reads match the theta quotient all the same.
    cells = [(IdentityParams(2001, 1000), 30), (IdentityParams(2000, 7), 12)]
    cells += [
        (IdentityParams(m, r), order)
        for m in range(6, 30, 5)
        for r in (1, m // 2)
        for order in range(m // 2 - 1)
    ]
    for params, order in cells:
        assert params.half_modulus - 1 > order
        assert fermionic_multisum(params, order) == bosonic_sum(params, order), (params, order)


def test_three_forms_agree_on_grid():
    # The multisum's nested Horner levels against the theta quotient, which
    # shares no code with them beyond the geometric division.
    order = 150
    for m in range(3, 22):
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


def finitized_rhs_by_tuples(params, size):
    """Definition-level finitized sum side: one term per tuple, one factor per step.

    Each weakly decreasing tuple (n_1, ..., n_{k-1}) under the parity's bound
    contributes q^(n_1^2 + ... + n_{k-1}^2 + n_r + ... + n_{k-1}) times the
    Gaussian binomial [upper_j, n_j - n_{j+1}] of each step, with the upper
    index read from the prefix sum P_j = n_1 + ... + n_{j-1}.
    """
    k, r = params.half_modulus, params.residue
    weight, budget = (2, size - k + r) if params.is_odd else (1, size)
    total = ()
    for values in multisum_tuples(k - 1, lambda prefix: weight * sum(prefix) <= budget):
        term = (1,)
        for j, gap, base in chain_steps(params, values):
            before = sum(values[: j - 1])
            pair = 2 * values[j - 1] - gap  # n_j + n_{j+1}
            if base == 2:
                upper = size - before
            elif params.is_odd:
                upper = size - 2 * before - pair - odd_offset(k, r, j)
            else:
                upper = 2 * size - 2 * before - pair + even_offset(k, r, j)
            factor = inflate(pascal_gauss(upper, gap), base)
            term = truncated_product(term, factor, len(term) + len(factor) - 2)
        exponent = sum(v * v for v in values) + sum(values[r - 1 :])
        total = shifted_sum(total, term, exponent)
    return total


def test_finitized_levels_match_tuple_oracle():
    # The levels over (n_j, P_{j+1}) states against the per-tuple definition
    # on 465 cells: M = 3..13, every residue, sizes <= 12 (<= 8 once M >= 11),
    # the odd k = 1 cell and every negative odd budget among them.
    cells = 0
    for m in range(3, 14):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size in range(13 if m < 11 else 9):
                assert finitized_rhs(params, size).coefficients == finitized_rhs_by_tuples(
                    params, size
                ), (m, r, size)
                cells += 1
    assert cells == 465


def _add_shifted(total, term, shift, sign):
    # total += sign * q^shift * term, growing total as needed (shift >= 0)
    end = shift + len(term)
    if end > len(total):
        total.extend([0] * (end - len(total)))
    for i, c in enumerate(term, shift):
        total[i] += sign * c


def _convolve(a, b):
    # full polynomial product; the empty list is zero
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for t, bj in enumerate(b, i):
                out[t] += ai * bj
    return out


def _stripped(coefficients):
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return tuple(coefficients)


def finitized_lhs_by_lists(params, size):
    """The alternating side summed on coefficient lists, term by term.

    Reads ``series.gaussian_binomial`` through the module, so a patched
    binomial reaches it.
    """
    upper = sum(finitized_box(params, size))
    offset = upper - params.half_modulus + params.residue
    total = []

    def add_term(j, lower):
        term = series.gaussian_binomial(upper, lower).coefficients
        _add_shifted(total, term, series._theta_exponent(params, j), -1 if j % 2 else 1)

    j = 0
    while (lower := (offset - params.modulus * j) // 2) >= 0:  # lower index falls
        add_term(j, lower)
        j += 1
    j = -1
    while (lower := (offset - params.modulus * j) // 2) <= upper:  # lower index rises
        add_term(j, lower)
        j -= 1
    return _stripped(total)


def finitized_rhs_by_lists(params, size):
    """The sum side's levels over (n_j, P_{j+1}) states on coefficient lists.

    One convolution per binomial and one shifted add per state, reading
    ``series.gaussian_binomial`` through the module, so a patched binomial
    reaches it.
    """
    k, r = params.half_modulus, params.residue
    cap = (size - k + r) // 2 if params.is_odd else size
    states = {(cap, 0): [1]}
    for j in range(1, k + 1):
        level = {}
        for (prev, prefix), poly in states.items():
            before = prefix - prev
            for n in range(1 if j == k else min(prev, cap - prefix) + 1):
                term = poly
                if j > 1:
                    base = series._step_base(params, j - 1)
                    if base == 2:
                        upper = size - before
                    elif params.is_odd:
                        upper = size - 2 * before - prev - n - odd_offset(k, r, j - 1)
                    else:
                        upper = 2 * size - 2 * before - prev - n + even_offset(k, r, j - 1)
                    binomial = series.gaussian_binomial(upper, prev - n, base).coefficients
                    term = _convolve(poly, binomial)
                    if not term:
                        continue
                shift, key = n * n + (n if j >= r else 0), (n, prefix + n)
                if key in level:
                    _add_shifted(level[key], term, shift, 1)
                else:
                    level[key] = [0] * shift + term
        states = level
    return _stripped(list(map(sum, zip_longest(*states.values(), fillvalue=0))))


@settings(max_examples=150, deadline=None)
@given(
    params=st.sampled_from(
        [IdentityParams(m, r) for m in range(3, 15) for r in range(1, m // 2 + 1)]
    ),
    size=st.integers(0, 12),
)
@example(params=IdentityParams(13, 1), size=12)  # the most sum-side states
@example(params=IdentityParams(14, 1), size=12)  # the widest even box
def test_packed_sides_match_list_oracles(params, size):
    assert finitized_lhs(params, size).coefficients == finitized_lhs_by_lists(params, size)
    assert finitized_rhs(params, size).coefficients == finitized_rhs_by_lists(params, size)


def _binomial_plus(degree, delta):
    # every plain Gaussian binomial, zero-extended to ``degree`` as needed,
    # plus ``delta`` there, then spread to q^base
    real = series.gaussian_binomial

    def mutant(a, b, base=1):
        coefficients = list(real(a, b).coefficients)
        coefficients += [0] * (degree + 1 - len(coefficients))
        coefficients[degree] += delta
        return TruncatedSeries(inflate(coefficients, base))

    return mutant


def _table_plus(degree, delta):
    # every table read, in range or not, plus ``delta`` at limb ``degree``
    # of its own width (so at degree 2 * degree for a binomial in q^2), and
    # its bound plus |delta|
    real = series._gaussian_binomial

    def mutant(rows, a, b, bits):
        packed, bound = real(rows, a, b, bits)
        return packed + (delta << (bits * degree)), bound + abs(delta)

    return mutant


@pytest.mark.parametrize("degree, delta", [(2, 1 << 70), (0, -1), (3, -1)])
def test_packed_sides_decode_any_binomials(monkeypatch, degree, delta):
    # Limb widths hold for whatever the table entries hold: a coefficient
    # past 64 bits widens both sides once, and a negative one (or a binomial
    # that becomes zero) needs the balanced digits.  The list oracles read
    # the same change through gaussian_binomial.
    monkeypatch.setattr(series, "_gaussian_binomial", _table_plus(degree, delta))
    monkeypatch.setattr(series, "gaussian_binomial", _binomial_plus(degree, delta))
    for m in range(3, 11):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size in range(9):
                lhs = finitized_lhs(params, size).coefficients
                rhs = finitized_rhs(params, size).coefficients
                assert lhs == finitized_lhs_by_lists(params, size), (m, r, size)
                assert rhs == finitized_rhs_by_lists(params, size), (m, r, size)


def test_sides_sweep_matches_the_public_sides():
    # one table per base and one width for every size of a cell, against
    # each size's sides built alone
    for m in range(3, 21):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size, sides in enumerate(series._finitized_sides(params, 12)):
                assert sides == (finitized_lhs(params, size), finitized_rhs(params, size)), (
                    m, r, size
                )


def finitized_lhs_by_full_table(params, size):
    """The alternating side read from a q-Pascal table that keeps every row
    0..upper, grown by ``series._gaussian_binomial`` as the reads ask."""
    guess = series._first_guesses(params, size)[0]
    return series._decoded(
        lambda bits: series._finitized_lhs(params, size, ([], []), bits), guess
    )


def test_one_row_alternating_side_matches_the_full_table():
    for m in range(3, 21):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size in range(13):
                assert finitized_lhs(params, size) == finitized_lhs_by_full_table(
                    params, size
                ), (m, r, size)


def test_alternating_side_holds_one_row():
    # Row upper alone, grown keeping only the newest row: the peak traced
    # at (4, 1), N = 40 is about 0.9 MiB, where keeping rows 0..upper
    # peaked near 9.9 MiB.
    params = IdentityParams(4, 1)
    finitized_lhs(params, 40)  # any one-time table outside the side, grown
    tracemalloc.start()
    try:
        finitized_lhs(params, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


@pytest.mark.parametrize("name", ["_finitized_lhs", "_finitized_rhs"])
def test_sides_sweep_widens_for_either_side(monkeypatch, name):
    # one side alone given a 71-bit coefficient at degree 3, its bound past
    # the shared width: that size reads the public sides, each widened
    real = getattr(series, name)

    def wide(params, size, tables, bits):
        total, bound = real(params, size, tables, bits)
        return total + (1 << 70 << (bits * 3)), bound + (1 << 70)

    monkeypatch.setattr(series, name, wide)
    for m in range(3, 12):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            for size, sides in enumerate(series._finitized_sides(params, 8)):
                assert sides == (finitized_lhs(params, size), finitized_rhs(params, size)), (
                    m, r, size
                )


def check_finitized_by_sizes(params, size_max):
    """check_finitized's record by a loop that builds each size alone: the
    public sides, boxed_counts and the head sweep."""
    label = f"{'odd' if params.is_odd else 'even'} k={params.half_modulus} r={params.residue}"
    span = f"N<={size_max}"
    largest_top = verify._colored_top(*finitized_box(params, size_max))
    weight_max = verify._gap2_weight_bound(largest_top)
    bits, packed = families._colored_head_counts(params, weight_max, largest_top)
    checked = 0
    for size, admitted in enumerate(verify._admitted_series(params, packed, size_max)):
        lhs, rhs = finitized_lhs(params, size), finitized_rhs(params, size)
        checked += 1
        if lhs != rhs:
            note = f"size={size}: sides first differ at degree "
            return CheckRecord("finitized", label, span, checked, False,
                               note + str(first_difference(lhs.coefficients, rhs.coefficients)))
        max_part, max_length = finitized_box(params, size)
        box = TruncatedSeries(boxed_counts(params, max_part, max_length))
        colored_top = verify._colored_top(max_part, max_length)
        top = max(lhs.degree, box.order, verify._gap2_weight_bound(colored_top))
        colored = _unpack(admitted, bits, top + 1)
        routes = (("box count", box.padded(top)), ("top-part count", colored))
        for n, coefficient in enumerate(lhs.padded(top)):
            checked += 2
            for route, values in routes:
                if values[n] != coefficient:
                    note = f"size={size} n={n}: {route} {values[n]} vs coefficient {coefficient}"
                    return CheckRecord("finitized", label, span, checked, False, note)
    return CheckRecord("finitized", label, span, checked, True)


@pytest.mark.parametrize("degree, delta", [(2, 1 << 70), (0, -1), (3, -1), (1, 5)])
def test_finitized_records_match_the_per_size_loop_under_any_binomials(
    monkeypatch, degree, delta
):
    # Whatever the table entries hold, one table per cell and the packed
    # comparison give each record the per-size loop gives; a coefficient
    # past 64 bits sends a size to the public sides, each at its own width.
    monkeypatch.setattr(series, "_gaussian_binomial", _table_plus(degree, delta))
    public, fallbacks = series.finitized_lhs, []
    monkeypatch.setattr(
        series, "finitized_lhs", lambda *args: fallbacks.append(args) or public(*args)
    )
    for m in range(3, 12):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            record = check_finitized(params, 8)
            assert record == check_finitized_by_sizes(params, 8), (m, r)
    assert fallbacks or delta != 1 << 70


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


@pytest.mark.parametrize(
    "build",
    [
        lambda size: finitized_lhs(IdentityParams(7, 1), size),
        lambda size: finitized_rhs(IdentityParams(7, 1), size),
        lambda size: finitized_rhs(IdentityParams(8, 3), size),
    ],
)
def test_finitized_sides_reject_negative_size(build):
    # the finitized sides refuse a bad size as the builders refuse a bad
    # order, under their own parameter's name
    with pytest.raises(ValueError, match="size must be nonnegative"):
        build(-1)
    for size in (True, 2.0, "3"):
        with pytest.raises(ValueError, match="size must be an int"):
            build(size)


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
