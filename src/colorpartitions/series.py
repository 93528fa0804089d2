"""Exact q-series and polynomials for the product, sum, and finitized sides.

Everything is integer-exact: truncated series carry coefficients 0..order,
polynomials are arbitrary-degree with trailing zeros stripped.  The three
infinite forms (restricted product, alternating theta over the partition
series, quadratic multisum) and the two finitized polynomial identities are
built here; enumeration-based verification lives elsewhere.
"""

from __future__ import annotations

from typing import Sequence

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
        return [self.coefficient(i) for i in range(order + 1)]

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
        size = max(len(self.coefficients), len(other.coefficients))
        return QPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(size)]
        )

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


def partition_series(order: int) -> TruncatedSeries:
    """Generating series of all partitions (product of all geometric factors)."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        _divide_geometric(coeffs, n)
    return TruncatedSeries(coeffs)


def restricted_product(params: IdentityParams, order: int) -> TruncatedSeries:
    """Partitions into parts not congruent to 0 or +-residue mod the modulus.

    For modulus 3, residue 1 every residue class is excluded and the series
    is the constant 1.
    """
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


def _inverse_pochhammer(step: int, count: int, order: int) -> list[int]:
    # Series of 1 / product_{t=1..count} (1 - q^(step*t)), truncated.
    coeffs = [1] + [0] * order
    for t in range(1, count + 1):
        if step * t > order:
            break
        _divide_geometric(coeffs, step * t)
    return coeffs


def fermionic_multisum(params: IdentityParams, order: int) -> TruncatedSeries:
    """Quadratic multisum over weakly decreasing nonnegative exponent tuples.

    Each tuple contributes q^(sum of squares + tail linear part) divided by a
    chain of difference factorials and a final factorial in base q or q^2
    (odd/even modulus).  Tuples whose quadratic exponent alone exceeds the
    order are pruned.
    """
    k = params.half_modulus
    r = params.residue
    base = 1 if params.is_odd else 2
    acc = [0] * (order + 1)
    values: list[int] = []
    cache: dict[tuple[int, int], list[int]] = {}

    def cached_inverse(step: int, count: int) -> list[int]:
        key = (step, count)
        if key not in cache:
            cache[key] = _inverse_pochhammer(step, count, order)
        return cache[key]

    def term_exponent() -> int:
        return sum(v * v for v in values) + sum(values[r - 1 :])

    def emit() -> None:
        exponent = term_exponent()
        if exponent > order:
            return
        factor = [1] + [0] * (order - exponent)
        for j in range(k - 2):
            gap = values[j] - values[j + 1]
            if gap:
                factor = _convolve(factor, cached_inverse(1, gap), order - exponent)
        if values and values[-1]:
            factor = _convolve(factor, cached_inverse(base, values[-1]), order - exponent)
        for i, c in enumerate(factor):
            acc[exponent + i] += c

    def descend(position: int, ceiling: int, quadratic: int) -> None:
        if position == k - 1:
            emit()
            return
        value = 0
        while True:
            if value > ceiling or quadratic + value * value > order:
                break
            values.append(value)
            descend(position + 1, value, quadratic + value * value)
            values.pop()
            value += 1

    if k == 1:
        acc[0] = 1
        return TruncatedSeries(acc)

    def outer() -> None:
        value = 0
        while value * value <= order:
            values.append(value)
            descend(1, value, value * value)
            values.pop()
            value += 1

    outer()
    return TruncatedSeries(acc)


def gaussian_binomial(a: int, b: int, base: int = 1) -> QPolynomial:
    """Gaussian binomial coefficient [a, b] as an exact polynomial.

    Zero when b < 0 or b > a or a < 0.  ``base`` substitutes q -> q**base
    after expansion (used by the even-modulus finitized sum).
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
    # k = 8 for every residue.
    return min(k - max(i, 2), k - 1 - j)


def finitized_box(params: IdentityParams, size: int) -> tuple[int, int]:
    """(max columns, max rows) of the box the finitized identity counts."""
    k = params.half_modulus
    r = params.residue
    if params.is_odd:
        return (size + k - r + 1) // 2, (size - k + r) // 2
    return size + k - r, size


def _odd_rhs(k: int, r: int, size: int) -> QPolynomial:
    total = QPolynomial()
    budget = size - k + r

    def term(values: list[int]) -> QPolynomial:
        padded = values + [0]  # terminal index is pinned to zero
        exponent = sum(v * v for v in values) + sum(values[r - 1 :])
        poly = QPolynomial.one().shifted(exponent)
        prefix = 0
        for j in range(1, k):
            upper = size - 2 * prefix - padded[j - 1] - padded[j] - max(j - r + 1, 0)
            poly = poly * gaussian_binomial(upper, padded[j - 1] - padded[j])
            if not poly:
                return poly
            prefix += padded[j - 1]
        return poly

    values: list[int] = []

    def descend(position: int, ceiling: int, used: int) -> None:
        nonlocal total
        if position == k - 1:
            total = total + term(values)
            return
        for value in range(min(ceiling, (budget - 2 * used) // 2) + 1):
            values.append(value)
            descend(position + 1, value, used + value)
            values.pop()

    if k == 1:
        return term([])
    for value in range((budget // 2) + 1):
        values.append(value)
        descend(1, value, value)
        values.pop()
    return total


def _even_rhs(k: int, r: int, size: int) -> QPolynomial:
    total = QPolynomial()

    def term(values: list[int]) -> QPolynomial:
        padded = values + [0]
        exponent = sum(v * v for v in values) + sum(values[r - 1 :])
        poly = QPolynomial.one().shifted(exponent)
        prefix = 0
        for j in range(1, k - 1):
            upper = 2 * size - 2 * prefix - padded[j - 1] - padded[j] + even_offset(k, r, j)
            poly = poly * gaussian_binomial(upper, padded[j - 1] - padded[j])
            if not poly:
                return poly
            prefix += padded[j - 1]
        final_upper = size - sum(values[: k - 2])
        poly = poly * gaussian_binomial(final_upper, values[-1], base=2)
        return poly

    values: list[int] = []

    def descend(position: int, ceiling: int, used: int) -> None:
        nonlocal total
        if position == k - 1:
            total = total + term(values)
            return
        for value in range(min(ceiling, size - used) + 1):
            values.append(value)
            descend(position + 1, value, used + value)
            values.pop()

    for value in range(size + 1):
        values.append(value)
        descend(1, value, value)
        values.pop()
    return total


def finitized_lhs(params: IdentityParams, size: int) -> QPolynomial:
    """Alternating binomial side of the finitized identity.

    With (W, H) = ``finitized_box(params, size)`` and upper = W + H, this is
    sum_j (-1)^j q^(j(Mj+M-2r)/2) [upper, (upper - k + r - Mj) // 2]: the
    generating polynomial of rank-window partitions in a W x H box (Andrews,
    Baxter, Bressoud, Burge, Forrester and Viennot, Europ. J. Combin. 8,
    1987), one formula for both parities.
    """
    _check_finitized_params(params, size)
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
    """Quadratic multisum side of the finitized identity."""
    _check_finitized_params(params, size)
    if params.is_odd:
        return _odd_rhs(params.half_modulus, params.residue, size)
    return _even_rhs(params.half_modulus, params.residue, size)


def _check_finitized_params(params: IdentityParams, size: int) -> None:
    if size < 0:
        raise ValueError("size must be nonnegative")
