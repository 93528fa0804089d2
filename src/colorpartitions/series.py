"""Exact q-series and polynomials for the product, sum, and finitized sides.

Everything is integer-exact and held in one coefficient type,
:class:`TruncatedSeries`: a tuple of ints, degree 0 first.  The three
infinite forms (restricted product, alternating theta over the partition
series, quadratic multisum) carry coefficients 0..order; the two finitized
polynomial identities and the Gaussian binomials are polynomials with
trailing zeros stripped.  The product, the multisum and the Gaussian
binomials run on plain lists: in-place prefix recurrences for the geometric
factors.  The theta quotient divides by no geometric factor: it reads the
partition numbers from ``kernels``' table, kept by Euler's pentagonal
recurrence, and adds one shifted copy of them per theta term.  The
finitized sides run on packed ints (Kronecker substitution q = 2^B, as in
``kernels``; Harvey, J. Symbolic Comput. 44, 2009): each running sum is one
int, a product with a Gaussian binomial is one int multiply, and a q-shift
is a bit shift.  Each public side reads its Gaussian binomials from packed
q-Pascal rows: the sum side from its own table, grown only as far as it
reads, and the alternating side from the one row it reads, grown keeping
only the newest row.  ``verify`` reads both sides at every size of a cell
from one table per base, grown once at the width the largest size needs,
and compares them packed at that width (``_finitized_sides``).  Each side carries a bound on the absolute values
of its final coefficients and unpacks them as balanced digits at
``kernels``' one width rule: the bit length of that bound plus one sign
bit.  Enumeration-based verification lives elsewhere.
"""

from __future__ import annotations

from math import comb, isqrt
from operator import add, sub
from typing import Callable, Iterator, Sequence

from .coloring import IdentityParams
from .kernels import _partition_number, _signed_bits, _unpack_signed
from .partitions import _require_count, _require_int

__all__ = [
    "TruncatedSeries",
    "partition_series",
    "restricted_product",
    "bosonic_sum",
    "fermionic_multisum",
    "gaussian_binomial",
    "odd_offset",
    "even_offset",
    "finitized_box",
    "finitized_lhs",
    "finitized_rhs",
    "first_difference",
]


class TruncatedSeries:
    """Exact integer coefficients, degree 0 first, stored as given.

    A truncated series holds coefficients 0..order; a polynomial holds its
    coefficients up to its degree.  The empty tuple is the zero polynomial.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int] = ()):
        # Exact arithmetic only: no float, str or bool coefficient is coerced.
        self.coefficients = tuple(coefficients)
        for c in self.coefficients:
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints, got {c!r}")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient (-1 for zero)."""
        end = len(self.coefficients)
        while end and self.coefficients[end - 1] == 0:
            end -= 1
        return end - 1

    def padded(self, order: int) -> list[int]:
        """Coefficients 0..order, zero-padded (and truncated) as needed."""
        head = list(self.coefficients[: max(order + 1, 0)])
        return head + [0] * (order + 1 - len(head))

    def __getitem__(self, degree: int) -> int:
        return self.coefficients[degree]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)!r})"


def _polynomial(coefficients: list[int]) -> TruncatedSeries:
    # A finitized side or Gaussian binomial: trailing zeros stripped.
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return TruncatedSeries(coefficients)


def _divide_geometric(coefficients: list[int], step: int) -> None:
    # Multiply in place by 1/(1 - q^step): running prefix recurrence.
    for i in range(step, len(coefficients)):
        coefficients[i] += coefficients[i - step]


def first_difference(a: Sequence[int], b: Sequence[int]) -> int | None:
    """Lowest degree where two coefficient sequences disagree (None if equal).

    Sequences are zero-extended, so lengths may differ.
    """
    for i in range(max(len(a), len(b))):
        ca = a[i] if i < len(a) else 0
        cb = b[i] if i < len(b) else 0
        if ca != cb:
            return i
    return None


def partition_series(order: int) -> TruncatedSeries:
    """Generating series of all partitions (product of all geometric factors)."""
    _require_count(order, "order")
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        _divide_geometric(coeffs, n)
    return TruncatedSeries(coeffs)


def restricted_product(params: IdentityParams, order: int) -> TruncatedSeries:
    """Partitions into parts not congruent to 0 or +-residue mod the modulus.

    For modulus 3, residue 1 every residue class is excluded and the series
    is the constant 1.
    """
    _require_count(order, "order")
    m = params.modulus
    excluded = {0, params.residue % m, (m - params.residue) % m}
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        if n % m not in excluded:
            _divide_geometric(coeffs, n)
    return TruncatedSeries(coeffs)


def _theta_exponent(params: IdentityParams, j: int) -> int:
    m = params.modulus
    # exact: j(Mj + M - 2r) = M j(j + 1) - 2rj is even for every int j
    return j * (m * j + m - 2 * params.residue) // 2


def bosonic_sum(params: IdentityParams, order: int) -> TruncatedSeries:
    """Alternating theta series divided by the full partition product.

    The theta series sum_j (-1)^j q^e(j), e(j) = j(Mj + M - 2r)/2 over every
    int j, times the partition series: each term adds (-1)^j p(n - e(j)) to
    every coefficient n >= e(j).  The partition numbers p(0..order) are read
    from ``kernels``' pentagonal table, not divided out factor by factor.
    For either sign of j, e(j) >= M|j|(|j| - 1)/2 >= M(|j| - 1)^2/2 (as
    2r <= M), so a term inside the order has |j| <= isqrt(2 order // M) + 1.
    At 2r = M, e(j) = e(-j) and both terms count.
    """
    _require_count(order, "order")
    # read from the top down, so the shared table grows once, not once per n
    numbers = [_partition_number(n) for n in range(order, -1, -1)][::-1]
    coeffs = [0] * (order + 1)
    reach = isqrt(2 * order // params.modulus) + 1
    for j in range(-reach, reach + 1):
        exponent = _theta_exponent(params, j)
        if exponent <= order:
            coeffs[exponent:] = map(sub if j % 2 else add, coeffs[exponent:], numbers)
    return TruncatedSeries(coeffs)


def _step_base(params: IdentityParams, j: int) -> int:
    # Base of step j's factor: 2 (q -> q^2) only at the last step j = k-1 of
    # an even modulus, 1 everywhere else.
    return 2 if j == params.half_modulus - 1 and not params.is_odd else 1


def fermionic_multisum(params: IdentityParams, order: int) -> TruncatedSeries:
    """Andrews-Gordon multisum over weakly decreasing nonnegative tuples.

    The sum runs over tuples n_1 >= ... >= n_{k-1} >= n_k = 0 of
    q^(n_1^2 + ... + n_{k-1}^2 + n_r + ... + n_{k-1}) / prod_j (q^b; q^b)_{n_j -
    n_{j+1}}, with b = 2 only at the last step j = k-1 of an even modulus.  It
    is taken in k-1 nested levels, from n_{k-1} up to n_1.  Level j holds one
    series per value N of n_j,

        B_j(N) = q^(N^2 + [j >= r] N) sum_{N' <= N} B_{j+1}(N') / (q^b; q^b)_{N-N'},

    with B_k = 1 at N' = 0, and the multisum is sum_N B_1(N); B_1(N) is the
    part with n_1 = N.  Each inner sum is one Horner pass: starting from
    B_{j+1}(0), divide in place by 1 - q^(b (N-N'+1)) (a prefix recurrence,
    as in :func:`restricted_product`) and add B_{j+1}(N'), for N' = 1..N.
    The n_1, ..., n_{j-1} above level j add at least (j-1) N^2 to the
    exponent, so B_j(N) is kept only to degree order - (j-1) N^2, and values
    N whose own exponent already passes that are dropped.
    """
    _require_count(order, "order")
    below = [[1] + [0] * order]  # B_k
    # a level j > order admits only n_j = 0, so it would copy B_{j+1}
    for j in range(min(params.half_modulus - 1, order), 0, -1):
        base = _step_base(params, j)
        linear = 1 if j >= params.residue else 0
        level = []
        n = 0
        while j * n * n + linear * n <= order:
            exponent = n * n + linear * n
            acc = below[0][: order + 1 - (j - 1) * n * n - exponent]
            for m in range(1, n + 1):
                _divide_geometric(acc, base * (n - m + 1))
                if m < len(below):  # a missing B_{j+1}(m) is zero to this order
                    acc = list(map(add, acc, below[m]))
            level.append([0] * exponent + acc)
            n += 1
        below = level
    return TruncatedSeries([sum(column) for column in zip(*below)])


def gaussian_binomial(a: int, b: int, base: int = 1) -> TruncatedSeries:
    """Gaussian binomial coefficient [a, b] as an exact polynomial.

    Zero when b < 0 or b > a or a < 0.  Built on one list as the product of
    (1 - q^(a-b+i)) / (1 - q^i) for i = 1..b (Andrews, *The Theory of
    Partitions*, 1976, Thm 3.2): each numerator is multiplied in place and
    each denominator divided out by a prefix recurrence.  A division is exact
    exactly when the recurrence leaves the list's top i coefficients zero, and
    anything else raises ValueError.  ``base`` substitutes q -> q**base after
    expansion and must be positive.  The finitized sides read their
    binomials packed, from a q-Pascal table (:func:`_gaussian_binomial`);
    this list builder is the oracle that table is tested against.
    Every argument must be an int.
    """
    for name, value in (("a", a), ("b", b), ("base", base)):
        _require_int(value, name)
    if base < 1:
        raise ValueError("base must be positive")
    if b < 0 or a < 0 or b > a:
        return TruncatedSeries()
    if base > 1:
        plain = gaussian_binomial(a, b, 1).coefficients
        spread = [0] * ((len(plain) - 1) * base + 1)
        spread[::base] = plain
        return TruncatedSeries(spread)
    b = min(b, a - b)
    # Room for the widest intermediate product, degree b(a-b) + b.
    coeffs = [1] + [0] * (b * (a - b + 1))
    top = len(coeffs) - 1
    for i in range(1, b + 1):
        step = a - b + i
        for t in range(top, step - 1, -1):
            coeffs[t] -= coeffs[t - step]
        _divide_geometric(coeffs, i)
        if any(coeffs[top - i + 1 :]):
            raise ValueError(f"inexact division by 1 - q^{i}")
    return _polynomial(coeffs)


def odd_offset(k: int, i: int, j: int) -> int:
    """Offset matrix entry for the odd finitized sum (1-based i <= k, j <= k-1)."""
    if not (1 <= i <= k and 1 <= j <= k - 1):
        raise ValueError(f"offset index ({i},{j}) outside {k}x{k-1}")
    return max(j - i + 1, 0)


def even_offset(k: int, i: int, j: int) -> int:
    """Offset matrix entry for the even finitized sum (1-based i <= k, j <= k-2)."""
    if not (1 <= i <= k and 1 <= j <= k - 2):
        raise ValueError(f"offset index ({i},{j}) outside {k}x{k-2}")
    # Row i is the pointwise minimum of the constant k - max(i, 2) and the
    # anti-diagonal k - 1 - j: the first two rows coincide and run k-2, k-3,
    # ..., 1; each later row plateaus one lower before joining that run; the
    # last row is zero.  Entries are nonnegative and are *added* to the chain
    # binomial's upper index.  Subtracting them instead breaks the identity at
    # every even cell with residue below k (first at size 0, where the empty
    # tuple's factor would get a negative upper index).  Both the sign and the
    # plateau shape were pinned down by solving for the integer offsets
    # matching the alternating-binomial side: unique over [-3, 3]^(k-2) for
    # k <= 4 (sizes <= 6), unique again at k = 5 and 6 where the plateau
    # first separates from a strictly decreasing row, and confirmed through
    # k = 8 for every residue (tests/test_verify.py::
    # test_finitized_identities_reach_k8, sizes <= 8) and through k = 12 at
    # sizes <= 16 (the CI step "Finitized identity reaches k = 12, N = 16",
    # which pins the JSON bytes of verify finitized --k 12 --N-max 16).
    return min(k - max(i, 2), k - 1 - j)


def finitized_box(params: IdentityParams, size: int) -> tuple[int, int]:
    """(max columns, max rows) of the box the finitized identity counts.

    ``size`` must be a nonnegative int; anything else raises ValueError
    naming ``size``.
    """
    _require_count(size, "size")
    k = params.half_modulus
    r = params.residue
    if params.is_odd:
        return (size + k - r + 1) // 2, (size - k + r) // 2
    return size + k - r, size


def finitized_lhs(params: IdentityParams, size: int) -> TruncatedSeries:
    """Alternating binomial side of the finitized identity.

    With (W, H) = ``finitized_box(params, size)`` and upper = W + H, this is
    sum_j (-1)^j q^(j(Mj+M-2r)/2) [upper, (upper - k + r - Mj) // 2]: the
    generating polynomial of rank-window partitions in a W x H box (Andrews,
    Baxter, Bressoud, Burge, Forrester and Viennot, Europ. J. Combin. 8,
    1987), one formula for both parities.

    Summed packed.  Every term reads row upper of the q-Pascal table, so
    that row alone is kept: it is grown from row 0 holding only the newest
    row.  No coefficient of the sum
    exceeds in absolute value the sum of its terms' bounds on |[upper,
    lower]|_1, C(upper, lower) each on correct entries, so balanced digits
    of the width that bound gives decode it exactly, whatever the entries
    hold (:func:`_decoded`).

    ``size`` must be a nonnegative int; anything else raises ValueError
    naming ``size``.
    """
    guess = _first_guesses(params, size)[0]
    upper = sum(finitized_box(params, size))

    def build(bits: int) -> tuple[int, int]:
        # Every term reads row upper alone: grow it keeping only the newest
        # row, with None standing in for the rows below it in the table.
        row: list = []
        for n in range(upper + 1):
            row = _pascal_row(row, n, bits)
        return _finitized_lhs(params, size, ([None] * upper + [row], []), bits)

    return _decoded(build, guess)


def _alternating_terms(params: IdentityParams, size: int) -> tuple[int, list[tuple[int, int]]]:
    # (upper, [(j, lower), ...]): exactly the j of finitized_lhs whose lower
    # index (offset - M j) // 2 lies in 0..upper
    upper = sum(finitized_box(params, size))
    offset = upper - params.half_modulus + params.residue
    m = params.modulus
    js = range(-((2 * upper + 1 - offset) // m), offset // m + 1)
    return upper, [(j, (offset - m * j) // 2) for j in js]


def _first_guesses(params: IdentityParams, size: int) -> tuple[int, int]:
    # The bounds each side's coefficients have on correct table entries:
    # sum C(upper, lower) over the alternating side's terms, and C(W + H, H)
    # for the sum side (see finitized_rhs).
    upper, terms = _alternating_terms(params, size)
    height = finitized_box(params, size)[1]
    return sum(comb(upper, lower) for _, lower in terms), comb(max(upper, 0), max(height, 0))


def _finitized_lhs(params: IdentityParams, size: int, tables: tuple, bits: int) -> tuple[int, int]:
    # (sum packed at width bits, its coefficient bound): finitized_lhs read
    # from the base-1 table of tables, the caller's rows at width bits.
    upper, terms = _alternating_terms(params, size)
    total, bound = 0, 0
    for j, lower in terms:
        packed, term_bound = _gaussian_binomial(tables[0], upper, lower, bits)
        packed <<= bits * _theta_exponent(params, j)
        total += -packed if j % 2 else packed
        bound += term_bound
    return total, bound


def finitized_rhs(params: IdentityParams, size: int) -> TruncatedSeries:
    """Quadratic multisum side of the finitized identity.

    A sum over weakly decreasing nonnegative tuples (n_1, ..., n_{k-1}), with
    n_k = 0.  Each tuple contributes q^(n_1^2 + ... + n_{k-1}^2 + n_r + ... +
    n_{k-1}) times one Gaussian binomial [upper_j, n_j - n_{j+1}] per step
    j = 1..k-1, where :func:`fermionic_multisum` has 1/(q; q)_{n_j - n_{j+1}}.
    With the prefix sums P_j = n_1 + ... + n_{j-1}:

    - odd modulus (Andrews, PNAS 71, 1974): tuples with
      2 (n_1 + ... + n_{k-1}) <= size - k + r, and
      upper_j = size - 2 P_j - n_j - n_{j+1} - odd_offset(k, r, j);
    - even modulus (Bressoud, Mem. AMS 227, 1980): tuples with
      n_1 + ... + n_{k-1} <= size, upper_j = 2 size - 2 P_j - n_j - n_{j+1}
      + even_offset(k, r, j) for j < k-1, and upper_{k-1} = size - P_{k-1}
      in base q^2.

    One formula for both parities: the parity picks only the tuple bound and
    the upper index.  Step j reads only n_j, n_{j+1} and P_j, so prefixes
    ending in the same state (n_j, P_{j+1}) share their future, and the sum
    is taken in levels j = 1..k, as :func:`fermionic_multisum` is, with one
    polynomial per state summing the terms of its prefixes:

        C_j(N, P + N) = q^(N^2 + [j >= r] N) sum_{N' >= N} C_{j-1}(N', P) [upper_{j-1}, N' - N]

    from C_0 = 1, with no binomial into level 1 and N = 0 only at level k.

    Each C_j is one packed int, beside a bound on the sum of the absolute
    values of its coefficients: 1 for C_0, multiplied through each
    binomial's own bound on |[upper, lower]|_1 and added through each sum.
    The final bound holds every coefficient of the result (:func:`_decoded`).
    On correct entries every coefficient is nonnegative, so the bound is the
    value at q = 1, the count of the W x H box's rank-window partitions, at
    most C(W + H, H): the width starts there and is not widened.

    ``size`` must be a nonnegative int; anything else raises ValueError
    naming ``size``.
    """
    guess = _first_guesses(params, size)[1]
    return _decoded(lambda bits: _finitized_rhs(params, size, ([], []), bits), guess)


def _finitized_rhs(params: IdentityParams, size: int, tables: tuple, bits: int) -> tuple[int, int]:
    # (sum of C_k packed at width bits, its coefficient-sum bound): the levels
    # of finitized_rhs.  A binomial in q^2 at width bits is the plain one at
    # width 2 bits, so tables holds the caller's rows of the base-1 table at
    # width bits and of the base-2 table at width 2 bits.
    k, r = params.half_modulus, params.residue
    cap = (size - k + r) // 2 if params.is_odd else size  # n_1 + ... + n_{k-1} <= cap
    states = {(cap, 0): (1, 1)}  # (n_{j-1}, P_j): (summed terms of its prefixes, bound)
    for j in range(1, k + 1):
        if j > 1:  # step j - 1: [upper_{j-1}, n_{j-1} - n_j], upper_{j-1} below
            base = _step_base(params, j - 1)
            rows = tables[base - 1]
            if params.is_odd:
                lead = size - odd_offset(k, r, j - 1)
            elif base == 1:
                lead = 2 * size + even_offset(k, r, j - 1)
        level: dict[tuple[int, int], tuple[int, int]] = {}
        for (prev, prefix), (poly, bound) in states.items():
            before = prefix - prev  # P_{j-1}
            for n in range(1 if j == k else min(prev, cap - prefix) + 1):
                term, term_bound = poly, bound
                if j > 1:
                    upper = size - before if base == 2 else lead - 2 * before - prev - n
                    factor, factor_bound = _gaussian_binomial(rows, upper, prev - n, base * bits)
                    if not factor_bound:  # a zero binomial ends every prefix here
                        continue
                    term, term_bound = term * factor, term_bound * factor_bound
                term <<= bits * (n * n + (n if j >= r else 0))
                key = (n, prefix + n)
                if key in level:
                    summed, summed_bound = level[key]
                    level[key] = (summed + term, summed_bound + term_bound)
                else:
                    level[key] = (term, term_bound)
        states = level
    return sum(poly for poly, _ in states.values()), sum(b for _, b in states.values())


def _gaussian_binomial(rows: list, a: int, b: int, bits: int) -> tuple[int, int]:
    # (packed, bound): [a, b] packed at width bits, beside a bound on the sum
    # of the absolute values of its coefficients; (0, 0) unless 0 <= b <= a.
    # rows is the caller's table at width bits, grown until row a exists by
    # the q-Pascal rule [a, b] = [a-1, b-1] + q^b [a-1, b] (Andrews, The
    # Theory of Partitions, ch. 3).  Row a holds b <= a // 2, and [a, b] =
    # [a, a - b] gives the rest.  Bounds add as the entries do, so each is
    # C(a, b) on correct entries.
    if not 0 <= b <= a:
        return 0, 0
    while len(rows) <= a:
        rows.append(_pascal_row(rows[-1] if rows else [], len(rows), bits))
    return rows[a][min(b, a - b)]


def _pascal_row(above: list, n: int, bits: int) -> list:
    # Row n of a q-Pascal table at width bits from row n - 1 (``above``,
    # unread at n = 0): entries (packed, bound) for b <= n // 2.
    row = [(1, 1)]
    for i in range(1, n // 2 + 1):
        (low, low_bound), (high, high_bound) = above[i - 1], above[min(i, n - 1 - i)]
        row.append((low + (high << (bits * i)), low_bound + high_bound))
    return row


def _decoded(build: Callable[[int], tuple[int, int]], guess: int) -> TruncatedSeries:
    # The polynomial that build(B) packs at width B, beside a bound on the
    # absolute values of its coefficients.  Built at the width the guess
    # gives, and once more at the bound's own width when the bound passes
    # it, so balanced digits decode it exactly whatever the entries hold.
    bits = _signed_bits(guess)
    total, bound = build(bits)
    if bound >> (bits - 1):
        bits = _signed_bits(bound)
        total, _ = build(bits)
    return _polynomial(_unpack_signed(total, bits))


def _finitized_sides(
    params: IdentityParams, size_max: int
) -> Iterator[tuple[TruncatedSeries, TruncatedSeries]]:
    # (finitized_lhs, finitized_rhs) at each size 0..size_max, both sides
    # read from one table per base at one width B: that of the larger first
    # guess at size_max.  A size whose bounds reach 2^(B-1) reads the public
    # sides instead, each at its own width.  With every balanced digit in
    # range, the sides' packed ints are equal exactly when their polynomials
    # are, so the sum side is decoded only when they differ.
    bits = _signed_bits(max(_first_guesses(params, size_max)))
    tables = ([], [])
    for size in range(size_max + 1):
        lhs, lhs_bound = _finitized_lhs(params, size, tables, bits)
        rhs, rhs_bound = _finitized_rhs(params, size, tables, bits)
        if (lhs_bound | rhs_bound) >> (bits - 1):
            yield finitized_lhs(params, size), finitized_rhs(params, size)
            continue
        left = _polynomial(_unpack_signed(lhs, bits))
        yield left, left if rhs == lhs else _polynomial(_unpack_signed(rhs, bits))
