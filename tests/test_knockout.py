"""Route knockout: which records of one small ``verify_all`` each route feeds.

Each row breaks one route by a single coefficient and lists, per scope, how
many records must then fail.  The mutant is patched at the module attribute
``verify`` reads it through (``series.<name>`` or ``families.<name>``), so
every caller inside those modules sees it too.  A change that drops a route
from a record, or adds one, changes this table.
"""

from collections import Counter

import pytest

from colorpartitions import families, series
from colorpartitions.series import TruncatedSeries
from colorpartitions.verify import verify_all

GRID = dict(n_max=20, gordon_n_max=20, odd_size_max=8, even_size_max=6)
CACHED_BINOMIAL = series.gaussian_binomial


def bumped(coefficients, degree):
    """The coefficients, zero-extended to ``degree`` as needed, plus 1 there."""
    out = list(coefficients) + [0] * (degree + 1 - len(coefficients))
    out[degree] += 1
    return out


def series_plus_one(name, degree):
    real = getattr(series, name)
    return lambda *args: TruncatedSeries(bumped(real(*args).coefficients, degree))


def binomial_plus_one(a, b, degree):
    def mutant(upper, lower, base=1):
        result = CACHED_BINOMIAL(upper, lower, base)
        if (upper, lower, base) == (a, b, 1):
            return TruncatedSeries(bumped(result.coefficients, degree))
        return result

    return mutant


def counts_plus_one(name, degree):
    real = getattr(families, name)
    return lambda *args, **kwargs: bumped(real(*args, **kwargs), degree)


def empty_head_plus_one(degree):
    real = families.colored_head_counts

    def mutant(*args, **kwargs):
        headed = real(*args, **kwargs)
        headed[()] = bumped(headed[()], degree)
        return headed

    return mutant


KNOCKOUTS = [
    ("restricted_product", series, series_plus_one("restricted_product", 12),
     {"product_counts": 15, "bijection": 15, "gordon": 5}),
    ("bosonic_sum", series, series_plus_one("bosonic_sum", 12),
     {"bijection": 18, "product_counts": 3}),
    ("fermionic_multisum", series, series_plus_one("fermionic_multisum", 12),
     {"bijection": 18}),
    ("finitized_lhs", series, series_plus_one("finitized_lhs", 12), {"finitized": 18}),
    ("finitized_rhs", series, series_plus_one("finitized_rhs", 12), {"finitized": 18}),
    ("gaussian_binomial", series, binomial_plus_one(9, 3, 4), {"finitized": 4}),
    ("frequency_counts", families, counts_plus_one("frequency_counts", 12), {"gordon": 5}),
    ("colored_head_counts", families, empty_head_plus_one(12),
     {"bijection": 18, "finitized": 18}),
    ("boxed_counts", families, counts_plus_one("boxed_counts", 12), {"finitized": 18}),
]


def failing_scopes():
    # Gaussian binomials are cached: a clean cache on both sides of the run
    # makes every call see the mutant, and keeps it out of later results.
    CACHED_BINOMIAL.cache_clear()
    try:
        report = verify_all(**GRID)
    finally:
        CACHED_BINOMIAL.cache_clear()
    return dict(Counter(record.scope for record in report.records if not record.ok))


def test_clean_grid_passes():
    assert failing_scopes() == {}


@pytest.mark.parametrize(
    "name, module, mutant, expected", KNOCKOUTS, ids=[row[0] for row in KNOCKOUTS]
)
def test_knockout_fails_exactly_its_records(monkeypatch, name, module, mutant, expected):
    monkeypatch.setattr(module, name, mutant)
    assert failing_scopes() == expected
