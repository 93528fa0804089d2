"""Exact q-series and polynomials for the product, sum, and finitized sides.

Everything is integer-exact: truncated series carry coefficients 0..order,
polynomials are arbitrary-degree with trailing zeros stripped.  The three
infinite forms (restricted product, alternating theta over the partition
series, quadratic multisum) and the two finitized polynomial identities are
built here; enumeration-based verification lives elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .coloring import IdentityParams

__all__ = [
    "TruncatedSeries",
    "QPolynomial",
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
    """Power series with exact integer coefficients up to a fixed order."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        if not coefficients:
            raise ValueError("a truncated series needs at least the constant term")
        self.coefficients = _int_tuple(coefficients)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, degree: int) -> int:
        return self.coefficients[degree]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coefficients[i] + other.coefficients[i] for i in range(order + 1)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coefficients])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            _convolve(self.coefficients, other.coefficients, order)
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)!r})"


def _int_tuple(coefficients: Sequence[int]) -> tuple[int, ...]:
    # Exact arithmetic only: no float, str or bool coefficient is coerced.
    coeffs = tuple(coefficients)
    for c in coeffs:
        if type(c) is not int:
            raise ValueError(f"coefficients must be ints, got {c!r}")
    return coeffs


def _convolve(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if not ai:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


def _divide_geometric(coefficients: list[int], step: int) -> None:
    # Multiply in place by 1/(1 - q^step): running prefix recurrence.
    for i in range(step, len(coefficients)):
        coefficients[i] += coefficients[i - step]


class QPolynomial:
    """Polynomial in q with exact integer coefficients, degree-0 first.

    Normalized: trailing zeros stripped, the zero polynomial is the empty
    coefficient tuple (degree -1).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int] = ()):
        coeffs = _int_tuple(coefficients)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        self.coefficients = coeffs[:end]

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def padded(self, order: int) -> list[int]:
        """Coefficients 0..order, zero-padded (and truncated) as needed."""
        head = list(self.coefficients[: max(order + 1, 0)])
        return head + [0] * (order + 1 - len(head))

    def truncated(self, order: int) -> TruncatedSeries:
        return TruncatedSeries(self.padded(order))

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        longer, shorter = self.coefficients, other.coefficients
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        total = list(longer)
        for i, c in enumerate(shorter):
            total[i] += c
        return QPolynomial(total)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self or not other:
            return QPolynomial()
        out = [0] * (self.degree + other.degree + 1)
        for i, ai in enumerate(self.coefficients):
            if not ai:
                continue
            for j, bj in enumerate(other.coefficients):
                out[i + j] += ai * bj
        return QPolynomial(out)

    def shifted(self, exponent: int) -> "QPolynomial":
        """Multiply by q**exponent."""
        if not self:
            return self
        if exponent < 0:
            raise ValueError("negative shift")
        return QPolynomial([0] * exponent + list(self.coefficients))

    def times_one_minus(self, exponent: int) -> "QPolynomial":
        """Multiply by (1 - q**exponent)."""
        return self - self.shifted(exponent)

    def divided_by_one_minus(self, exponent: int) -> "QPolynomial":
        """Exact division by (1 - q**exponent); raises if a remainder is left."""
        if exponent < 1:
            raise ValueError("exponent must be positive")
        if not self:
            return self
        if self.degree < exponent:
            raise ValueError("inexact division")
        out = [0] * (self.degree - exponent + 1)
        for i in range(self.degree - exponent + 1):
            below = out[i - exponent] if i >= exponent else 0
            out[i] = self.coefficients[i] + below
        quotient = QPolynomial(out)
        if quotient.times_one_minus(exponent) != self:
            raise ValueError("inexact division")
        return quotient

    def inflated(self, base: int) -> "QPolynomial":
        """Substitute q -> q**base (spread coefficients ``base`` apart)."""
        if base == 1 or not self:
            return self
        if base < 1:
            raise ValueError("base must be positive")
        out = [0] * (self.degree * base + 1)
        for i, c in enumerate(self.coefficients):
            out[i * base] = c
        return QPolynomial(out)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coefficients)!r})"


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


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


def partition_series(order: int) -> TruncatedSeries:
    """Generating series of all partitions (product of all geometric factors)."""
    _check_order(order)
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        _divide_geometric(coeffs, n)
    return TruncatedSeries(coeffs)


def restricted_product(params: IdentityParams, order: int) -> TruncatedSeries:
    """Partitions into parts not congruent to 0 or +-residue mod the modulus.

    For modulus 3, residue 1 every residue class is excluded and the series
    is the constant 1.
    """
    _check_order(order)
    m = params.modulus
    excluded = {0, params.residue % m, (m - params.residue) % m}
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        if n % m not in excluded:
            _divide_geometric(coeffs, n)
    return TruncatedSeries(coeffs)


def _theta_exponent(params: IdentityParams, j: int) -> int:
    m = params.modulus
    value, remainder = divmod(j * (m * j + m - 2 * params.residue), 2)
    assert remainder == 0, "theta exponent must be an integer"
    return value


def bosonic_sum(params: IdentityParams, order: int) -> TruncatedSeries:
    """Alternating theta series divided by the full partition product."""
    _check_order(order)
    theta = [0] * (order + 1)
    theta[0] = 1
    j = 1
    while True:
        sign = -1 if j % 2 else 1
        plus = _theta_exponent(params, j)
        minus = _theta_exponent(params, -j)
        if plus > order and minus > order:
            break
        if plus <= order:
            theta[plus] += sign
        if minus <= order:
            theta[minus] += sign
        j += 1
    for n in range(1, order + 1):
        _divide_geometric(theta, n)
    return TruncatedSeries(theta)


def _multisum_tuples(
    length: int, fits: Callable[[tuple[int, ...]], bool], prefix: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    # Weakly decreasing nonnegative tuples (n_1, ..., n_length) whose every
    # prefix passes ``fits``.  ``fits`` is monotone in the last value, so each
    # position stops at its first rejection; length 0 yields the empty tuple.
    if len(prefix) == length:
        yield prefix
        return
    value = 0
    while (not prefix or value <= prefix[-1]) and fits(prefix + (value,)):
        yield from _multisum_tuples(length, fits, prefix + (value,))
        value += 1


def _multisum_exponent(values: tuple[int, ...], r: int) -> int:
    # n_1^2 + ... + n_{k-1}^2 + n_r + ... + n_{k-1}
    return sum(v * v for v in values) + sum(values[r - 1 :])


def _chain_steps(
    params: IdentityParams, values: tuple[int, ...]
) -> Iterator[tuple[int, int, int]]:
    # (j, n_j - n_{j+1}, base) for j = 1..k-1 with n_k = 0; the base is 2
    # (q -> q^2) only at the last step of an even modulus.
    k = params.half_modulus
    padded = values + (0,)
    for j in range(1, k):
        base = 2 if j == k - 1 and not params.is_odd else 1
        yield j, padded[j - 1] - padded[j], base


def fermionic_multisum(params: IdentityParams, order: int) -> TruncatedSeries:
    """Andrews-Gordon multisum over weakly decreasing nonnegative tuples.

    Each tuple (n_1, ..., n_{k-1}) contributes q^(n_1^2 + ... + n_{k-1}^2 +
    n_r + ... + n_{k-1}) divided by one factor per step of the chain shared
    with :func:`finitized_rhs`: (q; q)_{n_j - n_{j+1}} for j = 1..k-1 with
    n_k = 0, the last in base q^2 for an even modulus.  Each step's factor
    1/(q^b; q^b)_gap is applied in place as ``gap`` prefix recurrences
    (division by 1 - q^(b t) for t = 1..gap), as in
    :func:`restricted_product`.  Tuples whose quadratic exponent alone
    exceeds the order are pruned.
    """
    _check_order(order)
    acc = [0] * (order + 1)
    squares_fit = lambda prefix: sum(v * v for v in prefix) <= order
    for values in _multisum_tuples(params.half_modulus - 1, squares_fit):
        exponent = _multisum_exponent(values, params.residue)
        if exponent > order:
            continue
        factor = [1] + [0] * (order - exponent)
        for _j, gap, base in _chain_steps(params, values):
            for t in range(1, gap + 1):
                _divide_geometric(factor, base * t)
        for i, c in enumerate(factor):
            acc[exponent + i] += c
    return TruncatedSeries(acc)


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int, base: int = 1) -> QPolynomial:
    """Gaussian binomial coefficient [a, b] as an exact polynomial (cached).

    Zero when b < 0 or b > a or a < 0.  ``base`` substitutes q -> q**base
    after expansion (used by the even-modulus finitized sum).  The finitized
    sides of one verify run ask for the same few hundred coefficients
    thousands of times.
    """
    if b < 0 or a < 0 or b > a:
        return QPolynomial()
    b = min(b, a - b)
    poly = QPolynomial.one()
    for i in range(1, b + 1):
        poly = poly.times_one_minus(a - b + i).divided_by_one_minus(i)
    return poly.inflated(base)


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
    # test_finitized_identities_reach_k8, sizes <= 8).
    return min(k - max(i, 2), k - 1 - j)


def finitized_box(params: IdentityParams, size: int) -> tuple[int, int]:
    """(max columns, max rows) of the box the finitized identity counts."""
    k = params.half_modulus
    r = params.residue
    if params.is_odd:
        return (size + k - r + 1) // 2, (size - k + r) // 2
    return size + k - r, size


def finitized_lhs(params: IdentityParams, size: int) -> QPolynomial:
    """Alternating binomial side of the finitized identity.

    With (W, H) = ``finitized_box(params, size)`` and upper = W + H, this is
    sum_j (-1)^j q^(j(Mj+M-2r)/2) [upper, (upper - k + r - Mj) // 2]: the
    generating polynomial of rank-window partitions in a W x H box (Andrews,
    Baxter, Bressoud, Burge, Forrester and Viennot, Europ. J. Combin. 8,
    1987), one formula for both parities.
    """
    _check_order(size)
    upper = sum(finitized_box(params, size))
    offset = upper - params.half_modulus + params.residue
    total = QPolynomial()
    j = 0
    while (lower := (offset - params.modulus * j) // 2) >= 0:  # lower index falls
        total = total + _theta_term(params, j, upper, lower)
        j += 1
    j = -1
    while (lower := (offset - params.modulus * j) // 2) <= upper:  # lower index rises
        total = total + _theta_term(params, j, upper, lower)
        j -= 1
    return total


def _theta_term(params: IdentityParams, j: int, upper: int, lower: int) -> QPolynomial:
    term = gaussian_binomial(upper, lower).shifted(_theta_exponent(params, j))
    return -term if j % 2 else term


def finitized_rhs(params: IdentityParams, size: int) -> QPolynomial:
    """Quadratic multisum side of the finitized identity.

    The tuples (n_1, ..., n_{k-1}) and the exponent are those of
    :func:`fermionic_multisum`; each step j = 1..k-1 of the same chain
    (n_k = 0) contributes the Gaussian binomial [upper_j, n_j - n_{j+1}]
    instead of an inverse factorial.  With P_j = n_1 + ... + n_{j-1}:

    - odd modulus (Andrews, PNAS 71, 1974): tuples with
      2 (n_1 + ... + n_{k-1}) <= size - k + r, and
      upper_j = size - 2 P_j - n_j - n_{j+1} - odd_offset(k, r, j);
    - even modulus (Bressoud, Mem. AMS 227, 1980): tuples with
      n_1 + ... + n_{k-1} <= size, upper_j = 2 size - 2 P_j - n_j - n_{j+1}
      + even_offset(k, r, j) for j < k-1, and upper_{k-1} = size - P_{k-1}
      in base q^2.

    One formula for both parities: the parity picks only the tuple bound and
    the upper index.
    """
    _check_order(size)
    k = params.half_modulus
    r = params.residue
    weight, budget = (2, size - k + r) if params.is_odd else (1, size)
    fits = lambda prefix: weight * sum(prefix) <= budget
    total = QPolynomial()
    for values in _multisum_tuples(k - 1, fits):
        term = QPolynomial.one().shifted(_multisum_exponent(values, r))
        before = 0  # P_j = n_1 + ... + n_{j-1}
        for j, gap, base in _chain_steps(params, values):
            pair = 2 * values[j - 1] - gap  # n_j + n_{j+1}
            if base == 2:
                upper = size - before
            elif params.is_odd:
                upper = size - 2 * before - pair - odd_offset(k, r, j)
            else:
                upper = 2 * size - 2 * before - pair + even_offset(k, r, j)
            term = term * gaussian_binomial(upper, gap, base)
            if not term:
                break
            before += values[j - 1]
        total = total + term
    return total
