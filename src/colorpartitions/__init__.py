"""Partitions with windowed successive ranks, colored encodings, and q-series.

The package ties four strands together: partition mechanics (conjugates,
Durfee squares, ranks, diagonal angles), the reversible encoding of
rank-window members as colored partitions, exact q-series for the product /
theta-quotient / multisum forms with their finitized polynomial analogues,
and a verification harness that checks each identity over parameter grids by
independent routes: the closed-form series against the rank-window members,
the kernel's box counts and the colored family counted by head, with
brute-force enumeration kept as the test oracle of each fast route.
"""

from .coloring import (
    ColoredPartition,
    ConditionCheck,
    IdentityParams,
    RankWindowError,
    alt_color_map,
    check_box_condition,
    check_conditions,
    color_map,
    format_colored,
    inverse_map,
    rank_from_color,
)
from .families import (
    FamilySpec,
    boxed_counts,
    boxed_members,
    colored_members,
    colored_members_via_encoding,
    enumerate_family,
    gap2_members,
    gordon_members,
    product_parts_members,
    rank_window_counts,
    rank_window_members,
)
from .kernels import count_rank_bounded_partitions
from .partitions import (
    Angles,
    Partition,
    angle_lengths,
    angles,
    as_partition,
    conjugate,
    durfee_size,
    format_partition,
    from_angles,
    parse_partition,
    partitions_of,
    successive_ranks,
    weight,
)
from .series import (
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
from .verify import (
    VerificationReport,
    check_bijection,
    check_finitized,
    check_gordon,
    check_product_counts,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "ColoredPartition",
    "ConditionCheck",
    "FamilySpec",
    "IdentityParams",
    "Partition",
    "RankWindowError",
    "TruncatedSeries",
    "VerificationReport",
    "alt_color_map",
    "angle_lengths",
    "angles",
    "as_partition",
    "bosonic_sum",
    "boxed_counts",
    "boxed_members",
    "check_bijection",
    "check_box_condition",
    "check_conditions",
    "check_finitized",
    "check_gordon",
    "check_product_counts",
    "color_map",
    "colored_members",
    "colored_members_via_encoding",
    "conjugate",
    "count_rank_bounded_partitions",
    "durfee_size",
    "enumerate_family",
    "fermionic_multisum",
    "finitized_box",
    "finitized_lhs",
    "finitized_rhs",
    "format_colored",
    "format_partition",
    "from_angles",
    "gap2_members",
    "gaussian_binomial",
    "gordon_members",
    "inverse_map",
    "parse_partition",
    "partition_series",
    "partitions_of",
    "product_parts_members",
    "rank_from_color",
    "rank_window_counts",
    "rank_window_members",
    "restricted_product",
    "successive_ranks",
    "verify_all",
    "weight",
]
