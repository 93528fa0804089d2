"""Exact q-series and polynomials for the product, sum, and finitized sides.

Everything is integer-exact and held in one coefficient type,
:class:`TruncatedSeries`: a tuple of ints, degree 0 first.  The three
infinite forms (restricted product, alternating theta over the partition
series, quadratic multisum) carry coefficients 0..order; the two finitized
polynomial identities and the Gaussian binomials are polynomials with
trailing zeros stripped.  All arithmetic runs on plain lists inside the
builders: in-place prefix recurrences for the geometric factors, a shifted
signed add and one convolution for the finitized sides.  Enumeration-based
verification lives elsewhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .coloring import IdentityParams

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


def _add_shifted(total: list[int], term: Sequence[int], shift: int, sign: int) -> None:
    # total += sign * q^shift * term, growing total as needed (shift >= 0).
    end = shift + len(term)
    if end > len(total):
        total.extend([0] * (end - len(total)))
    for i, c in enumerate(term, shift):
        total[i] += sign * c


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Full polynomial product; the empty list is zero.
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for t, bj in enumerate(b, i):
                out[t] += ai * bj
    return out


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
    # Exact ints only: a bool would otherwise truncate at order 0 or 1.
    if type(order) is not int:
        raise ValueError(f"order must be an int, got {order!r}")
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


@lru_cache(maxsize=None, typed=True)
def gaussian_binomial(a: int, b: int, base: int = 1) -> TruncatedSeries:
    """Gaussian binomial coefficient [a, b] as an exact polynomial (cached).

    Zero when b < 0 or b > a or a < 0.  Built on one list as the product of
    (1 - q^(a-b+i)) / (1 - q^i) for i = 1..b (Andrews, *The Theory of
    Partitions*, 1976, Thm 3.2): each numerator is multiplied in place and
    each denominator divided out by a prefix recurrence.  A division is exact
    exactly when the recurrence leaves the list's top i coefficients zero, and
    anything else raises ValueError.  ``base`` substitutes q -> q**base after
    expansion (used by the even-modulus finitized sum) and must be positive.
    The finitized sides of one verify run ask for the same few hundred
    coefficients thousands of times; cached results are shared, never mutated.
    Every argument must be an int.
    """
    for name, value in (("a", a), ("b", b), ("base", base)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if base < 1:
        raise ValueError("base must be positive")
    if b < 0 or a < 0 or b > a:
        return TruncatedSeries()
    if base > 1:
        plain = gaussian_binomial(a, b).coefficients
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
    # test_finitized_identities_reach_k8, sizes <= 8).
    return min(k - max(i, 2), k - 1 - j)


def finitized_box(params: IdentityParams, size: int) -> tuple[int, int]:
    """(max columns, max rows) of the box the finitized identity counts."""
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
    """
    _check_order(size)
    upper = sum(finitized_box(params, size))
    offset = upper - params.half_modulus + params.residue
    total: list[int] = []
    j = 0
    while (lower := (offset - params.modulus * j) // 2) >= 0:  # lower index falls
        _add_theta_term(total, params, j, upper, lower)
        j += 1
    j = -1
    while (lower := (offset - params.modulus * j) // 2) <= upper:  # lower index rises
        _add_theta_term(total, params, j, upper, lower)
        j -= 1
    return _polynomial(total)


def _add_theta_term(
    total: list[int], params: IdentityParams, j: int, upper: int, lower: int
) -> None:
    term = gaussian_binomial(upper, lower).coefficients
    _add_shifted(total, term, _theta_exponent(params, j), -1 if j % 2 else 1)


def finitized_rhs(params: IdentityParams, size: int) -> TruncatedSeries:
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
    total: list[int] = []
    for values in _multisum_tuples(k - 1, fits):
        term = [1]
        before = 0  # P_j = n_1 + ... + n_{j-1}
        for j, gap, base in _chain_steps(params, values):
            pair = 2 * values[j - 1] - gap  # n_j + n_{j+1}
            if base == 2:
                upper = size - before
            elif params.is_odd:
                upper = size - 2 * before - pair - odd_offset(k, r, j)
            else:
                upper = 2 * size - 2 * before - pair + even_offset(k, r, j)
            term = _convolve(term, gaussian_binomial(upper, gap, base).coefficients)
            if not term:
                break
            before += values[j - 1]
        _add_shifted(total, term, _multisum_exponent(values, r), 1)
    return _polynomial(total)
