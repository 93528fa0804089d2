"""Command-line front end.

Subcommands: ``table`` (member/ranks/encoding rows for one weight), ``coeffs``
(series coefficients), ``verify`` (grid verification; exit code 1 on a failed
identity), ``angles`` (diagonal-hook breakdown of one partition).  Exit codes:
0 success, 1 verification failure, 2 usage error (out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from operator import attrgetter

from . import families, render, series, verify
from .coloring import IdentityParams
from .partitions import parse_partition

FORMATS = ("text", "csv", "json")

# The most rows ``table`` builds (about 380 bytes of tuples each, rows
# sharing their colored parts, so about 190 MB before any text); a larger
# request exits 2 before any descent.
TABLE_ROW_LIMIT = 500_000

# The heaviest weight ``table`` accepts; past it the request exits 2 before
# the row count, whose pair DP alone would grow to seconds and gigabytes.
# No table of 1 to TABLE_ROW_LIMIT rows lies past it: the map
# (w_1, h_1) -> (w_1 + 1, h_1 + 1) keeps every rank and adds 2 to the
# weight, so a window's count never falls from n to n + 2; every window
# with M >= 5 contains [1, 2] (r = 1) or [0, 1] (r >= 2); and at weights
# 251 and 252 those two windows, [0, 0] (M = 4, r = 2) and, at the even
# weight, [1, 1] (M = 4, r = 1) all count over 500,000.  So a table past
# the limit has no rows (M = 3, or M = 4, r = 1 at odd n) or too many.
TABLE_WEIGHT_LIMIT = 250

# The most rank-window members ``verify bijection`` and ``verify all``
# encode: one walk at the grid's widest modulus serves every residue, over
# every weight up to --n-max, and encodes each member once per residue
# whose window holds it, at about 3.5 us a (member, residue) pair on one
# Xeon core under Python 3.11 (some 7 s at the limit).  The walk keeps no
# member's rows but a suspect's (none on correct code), so its memory does
# not grow with the count and the limit bounds time only: verify
# bijection --n-max 55 peaks at 23 MB.  A larger request exits 2 before
# the walk.  The default grid holds 1,175,276 such pairs at --n-max 55 and
# 2,285,110 at 60.
VERIFY_MEMBER_LIMIT = 2_000_000

# The largest --n-max those scopes accept; past it the request exits 2
# before the member count, and like the member limit it bounds time only.
# Every window [2 - r, M - r - 2] with M >= 4 holds [1, 1] (r = 1) or
# [0, 0] (r >= 2), a window holds every member of a narrower one, and those
# two windows have more than VERIFY_MEMBER_LIMIT members of weight at most
# 180 (2,140,113) and 172 (2,021,904).  So a grid past the limit holds only
# the empty member (M = 3) or too many.
VERIFY_WEIGHT_LIMIT = 179

# The verify flags each scope reads, by destination; any other is refused.
_SCOPE_FLAGS = {
    "all": ("n_max",),
    "counts": ("M", "r", "n_max"),
    "bijection": ("M", "r", "n_max"),
    "gordon": ("k", "r", "n_max"),
    "finitized": ("k", "r", "parity", "N_max", "n_max"),
}


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        "-f",
        choices=FORMATS,
        default=None,
        help="output format (default text, or the config file's 'format')",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write to this file instead of stdout"
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file with defaults for format/output; flags win",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorpartitions",
        description="Rank-window partition families, their colored encodings, "
        "and q-series identity verification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser(
        "table", help="member / ranks / colored-encoding rows for one weight"
    )
    table.add_argument("modulus", type=int, metavar="M")
    table.add_argument("residue", type=int, metavar="r")
    table.add_argument("weight", type=int, metavar="n")
    _add_output_flags(table)

    coeffs = commands.add_parser(
        "coeffs", help="coefficients of the product, theta-quotient, or multisum form"
    )
    coeffs.add_argument("form", choices=("product", "bosonic", "fermionic"))
    coeffs.add_argument("modulus", type=int, metavar="M")
    coeffs.add_argument("residue", type=int, metavar="r")
    coeffs.add_argument("order", type=int, metavar="N")
    _add_output_flags(coeffs)

    verify_cmd = commands.add_parser(
        "verify", help="run identity checks over a parameter grid"
    )
    verify_cmd.add_argument(
        "scope", choices=("all", "counts", "bijection", "gordon", "finitized")
    )
    verify_cmd.add_argument("--M", type=int, default=None, help="single modulus")
    verify_cmd.add_argument("--r", type=int, default=None, help="single residue")
    verify_cmd.add_argument(
        "--k", type=int, default=None, help="half-modulus (gordon/finitized)"
    )
    verify_cmd.add_argument(
        "--n-max", type=int, default=None, help="weight bound for count checks"
    )
    verify_cmd.add_argument(
        "--N-max",
        type=int,
        default=None,
        help="finitization size bound (default 12 odd / 10 even)",
    )
    verify_cmd.add_argument(
        "--parity", choices=("odd", "even"), default=None, help="finitized parity"
    )
    _add_output_flags(verify_cmd)

    angles_cmd = commands.add_parser(
        "angles", help="diagonal-hook breakdown of one partition"
    )
    angles_cmd.add_argument(
        "partition", help="comma-separated parts, e.g. 7,5,5,5,4,4,2"
    )
    _add_output_flags(angles_cmd)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # The parser main reuses: building one costs about a millisecond, and
    # parse_args leaves it as it was, each call getting a fresh namespace.
    return build_parser()


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, encoding="utf-8") as handle:
        overrides = json.load(handle)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    for key in ("format", "output"):
        if key not in overrides:
            continue
        # open() takes an int (or bool) output as a file descriptor and closes
        # it afterwards, so only strings are accepted.
        if not isinstance(overrides[key], str):
            raise ValueError(f"config {key!r} must be a string")
        if getattr(args, key, None) is None:
            setattr(args, key, overrides[key])


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args: argparse.Namespace) -> int:
    params = IdentityParams(args.modulus, args.residue)
    if args.weight < 0:
        raise ValueError("weight must be nonnegative")
    if args.weight > TABLE_WEIGHT_LIMIT:
        raise ValueError(
            f"table weight {args.weight} is over the limit of {TABLE_WEIGHT_LIMIT}: "
            f"past it a table has no rows or more than {TABLE_ROW_LIMIT:,}"
        )
    count = families.rank_window_counts(params, args.weight)[args.weight]
    if count > TABLE_ROW_LIMIT:
        raise ValueError(
            f"table {params.modulus} {params.residue} {args.weight} has {count:,} rows, "
            f"over the limit of {TABLE_ROW_LIMIT:,}"
        )
    rows = render.bijection_rows(params, args.weight)
    _emit(render.render_table(params, args.weight, rows, args.format), args.output)
    return 0


def _cmd_coeffs(args: argparse.Namespace) -> int:
    params = IdentityParams(args.modulus, args.residue)
    builder = {
        "product": series.restricted_product,
        "bosonic": series.bosonic_sum,
        "fermionic": series.fermionic_multisum,
    }[args.form]
    coefficients = builder(params, args.order).coefficients
    _emit(
        render.render_coefficients(
            args.form, params, args.order, coefficients, args.format
        ),
        args.output,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for dest in ("M", "r", "k", "n_max", "N_max", "parity"):
        if getattr(args, dest) is not None and dest not in _SCOPE_FLAGS[args.scope]:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"verify {args.scope} does not read {flag}")
    for flag, bound in (("--n-max", args.n_max), ("--N-max", args.N_max)):
        if bound is not None and bound < 0:
            raise ValueError(f"{flag} must be nonnegative")
    n_max = args.n_max
    if args.scope in ("counts", "bijection"):
        moduli = [args.M] if args.M is not None else verify.DEFAULT_MODULI
        residues = [args.r] if args.r is not None else None
        n_max = n_max if n_max is not None else verify.DEFAULT_N_MAX
        if args.scope == "bijection":
            _check_member_limit(args.scope, moduli, residues, n_max)
        report = verify.verify_identity_grid(
            moduli,
            residues,
            n_max,
            scope="product_counts" if args.scope == "counts" else "bijection",
        )
    elif args.scope == "gordon":
        if args.k is not None:
            residues = [args.r] if args.r is not None else range(1, args.k + 1)
            pairs = [(args.k, r) for r in residues]
        elif args.r is not None:
            pairs = [(k, args.r) for k, r in verify.DEFAULT_GORDON_PAIRS if r == args.r]
        else:
            pairs = verify.DEFAULT_GORDON_PAIRS
        report = verify.verify_gordon_grid(
            pairs, n_max if n_max is not None else verify.DEFAULT_GORDON_N_MAX
        )
    elif args.scope == "finitized":
        halves = [args.k] if args.k is not None else verify.DEFAULT_FINITIZED_HALVES
        parities = (args.parity,) if args.parity else ("odd", "even")
        odd_size = args.N_max if args.N_max is not None else verify.DEFAULT_ODD_SIZE_MAX
        even_size = args.N_max if args.N_max is not None else verify.DEFAULT_EVEN_SIZE_MAX
        report = verify.verify_finitized_grid(
            halves,
            parities,
            odd_size,
            even_size,
            n_max,
            residues=[args.r] if args.r is not None else None,
        )
    else:
        n_max = n_max if n_max is not None else verify.DEFAULT_N_MAX
        _check_member_limit(args.scope, verify.DEFAULT_MODULI, None, n_max)
        report = verify.verify_all(n_max=n_max)
    if not report.records:
        raise ValueError("the selection matches no grid cell")
    _emit(render.render_report(report, args.format), args.output)
    return 0 if report.passed else 1


def _check_member_limit(scope: str, moduli, residues, n_max: int) -> None:
    # Refuse a grid whose walk at its widest modulus would encode more than
    # VERIFY_MEMBER_LIMIT (member, residue) pairs, by the pair DP's counts
    # at each residue's widest cell; an empty grid is left to the "matches
    # no grid cell" error.
    cells = sorted(verify._identity_cells(moduli, residues), key=attrgetter("modulus"))
    widest = {params.residue: params for params in cells}
    if not widest:
        return
    if n_max > VERIFY_WEIGHT_LIMIT:
        raise ValueError(
            f"verify {scope} --n-max {n_max} is over the limit of {VERIFY_WEIGHT_LIMIT}: "
            f"past it a grid has only the empty member or more than "
            f"{VERIFY_MEMBER_LIMIT:,} members"
        )
    count = sum(sum(families.rank_window_counts(params, n_max)) for params in widest.values())
    if count > VERIFY_MEMBER_LIMIT:
        raise ValueError(
            f"verify {scope} --n-max {n_max} builds {count:,} members, "
            f"over the limit of {VERIFY_MEMBER_LIMIT:,}"
        )


def _cmd_angles(args: argparse.Namespace) -> int:
    parts = parse_partition(args.partition)
    _emit(render.render_angles(parts, args.format), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        if args.format is None:
            args.format = "text"
        if args.format not in FORMATS:
            raise ValueError(f"unknown format {args.format!r}")
        handler = {
            "table": _cmd_table,
            "coeffs": _cmd_coeffs,
            "verify": _cmd_verify,
            "angles": _cmd_angles,
        }[args.command]
        return handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 means a failed identity, so running out of memory is a usage error
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
