"""Rendering for tables, coefficient lists, angle breakdowns, and reports.

Three formats throughout: aligned/plain text, CSV, and canonical JSON.  The
JSON form is byte-stable: re-serializing a parsed payload reproduces the
original output exactly, and coefficient values are decimal strings so
arbitrary-precision integers survive the round trip.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain, groupby
from math import isqrt
from operator import itemgetter
from typing import Iterator, Sequence

from . import families
from .coloring import ColoredPartition, IdentityParams, format_colored
from .partitions import (
    Partition,
    angle_lengths,
    angles,
    conjugate,
    durfee_size,
    format_partition,
    successive_ranks,
)
from .verify import CheckRecord, VerificationReport

__all__ = [
    "canonical_json",
    "decimal_strings",
    "TableRow",
    "bijection_rows",
    "render_table",
    "table_text",
    "table_chunks",
    "render_coefficients",
    "render_angles",
    "render_report",
]

TableRow = tuple[Partition, tuple[int, ...], ColoredPartition]

_TABLE_HEADER = ("partition", "ranks", "colored")


def canonical_json(payload) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def decimal_strings(values: Sequence[int]) -> list[str]:
    """Integers as decimal strings (JSON-safe at any magnitude)."""
    return [str(v) for v in values]


def format_ranks(ranks: Sequence[int]) -> str:
    return "[" + ",".join(map(str, ranks)) + "]"


def _csv_text(header: Sequence[str], rows) -> str:
    # Every CSV output but table's: the header, then one line per row, "\n"-terminated.
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(chain((header,), rows))
    return buffer.getvalue()


def _table_cells(rows) -> Iterator[tuple[str, str, str]]:
    # a table's rows as the strings of their partition, ranks and encoding
    return (
        (format_partition(p), format_ranks(ranks), format_colored(colored))
        for p, ranks, colored in rows
    )


def bijection_rows(params: IdentityParams, n: int) -> list[TableRow]:
    """Member/ranks/encoding triples in canonical (reverse-lexicographic) order.

    One walk over the Frobenius pair chains of weight n (the rank-window
    members'), read from a per-call table of each chain state's children, in
    which a chain's rows, ranks and encoding are its parent's extended by its
    last pair; each pair's rank and colored part are made once, and every row
    holding the pair shares them.
    """
    return families._window_rows(params, n, n, n)


def table_text(params: IdentityParams, n: int) -> str:
    """``render_table``'s text for weight n, built with no row tuples.

    One walk over :func:`bijection_rows`'s child table: a chain's line is
    its parent's strings plus its last pair's pieces.  Reverse-lexicographic
    order is widths first, a chain that stops below any that continues,
    then heights from the last pair back, so the lines sort by one integer,
    descending: w_1 .. w_d zero-padded to depth isqrt(n) + 1, then h_d ..
    h_1, as the digits of a base n + 2 number.  The top digit w_1 is the
    first part, so the lines are keyed and sorted one first width at a
    time, w_1 descending, and only the group being sorted holds keys; the
    text is the groups' texts joined, each of which :func:`table_chunks`
    hands over as it is made.
    """
    return "".join(_text_groups(params, n))


def table_chunks(params: IdentityParams, n: int, fmt: str) -> Iterator[str]:
    """``render_table(params, n, bijection_rows(params, n), fmt)`` in pieces.

    Every format is written from the text walk's lines, one first part at a
    time, largest first (CSV's header, and JSON's head and tail, as pieces
    of their own), so only the largest group's lines are held at once; CSV
    and JSON re-spell each line's three fields.  The arguments are checked,
    and the child table built, before the first piece.
    """
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    groups = _text_groups(params, n)
    if fmt == "text":
        return groups
    if fmt == "csv":
        return chain([_csv_text(_TABLE_HEADER, ())], map(_csv_lines, groups))
    return _json_chunks(params, n, groups)


def _csv_lines(text: str) -> str:
    # a group's text lines as CSV lines.  No field holds a space, a quote or
    # a newline, so quoting just the fields that hold a comma is csv.writer's
    # minimal quoting, byte for byte.
    rows = map(str.split, text.splitlines())
    return "".join([",".join([f'"{f}"' if "," in f else f for f in row]) + "\n" for row in rows])


def _json_chunks(params: IdentityParams, n: int, groups) -> Iterator[str]:
    # render_table's canonical JSON in pieces.  Its keys sort as modulus,
    # residue, rows, weight, so the head ends at the rows' bracket, and the
    # rows (each a row object's own canonical JSON, four spaces deeper)
    # are joined by ",\n", a group at a time.
    yield f'{{\n  "modulus": {params.modulus},\n  "residue": {params.residue},\n  "rows": ['
    separator = "\n"
    for text in groups:
        yield separator
        yield ",\n".join([
            f'    {{\n      "colored": {_json_pairs(colored)},\n'
            f'      "partition": {_json_ints(p)},\n      "ranks": {_json_ints(ranks)}\n    }}'
            for p, ranks, colored in map(str.split, text.splitlines())
        ])
        separator = ",\n"
    closing = "]" if separator == "\n" else "\n  ]"
    yield f'{closing},\n  "weight": {n}\n}}\n'


def _json_ints(field: str) -> str:
    # a line's "(5,1)" or "[3,1]" as a row object's canonical list of ints
    numbers = field[1:-1].replace(",", ",\n        ")
    return f"[\n        {numbers}\n      ]" if numbers else "[]"


def _json_pairs(field: str) -> str:
    # a line's "(6_2,1_1)" as a row object's canonical list of [size, color]
    pairs = field[1:-1].replace(",", "\n        ],\n        [\n          ")
    pairs = pairs.replace("_", ",\n          ")
    return f"[\n        [\n          {pairs}\n        ]\n      ]" if pairs else "[]"


def _json_rows(rows) -> Iterator[dict]:
    # a table's rows as the objects of its JSON payload
    return (
        {
            "partition": list(p),
            "ranks": list(ranks),
            "colored": [[size, color] for size, color in colored],
        }
        for p, ranks, colored in rows
    )


def _text_groups(params: IdentityParams, n: int) -> Iterator[str]:
    # table_text's text, one chunk per first width w_1, w_1 descending; w_1
    # is the top digit of the lines' key, so each group sorts on its own.
    # The child table, the per-depth levels and the pieces are made once.
    root = families._exact_root(params, n, n, n)
    if root is None:
        return iter(["() [] ()\n"])
    base, top = n + 2, isqrt(n) + 1
    numbers = [str(value) for value in range(n + top)]
    commas, pieces = ["," + number for number in numbers], {}
    # per depth: key digits, row numbers, parts' (rank, label), comma, run marks
    levels = [(base ** (2 * top - 1), 1, numbers, {}, "", "", ",1")] + [
        (base ** (2 * top - 1 - d), base**d, commas, pieces, ",", f",{d}", f",{d + 1}")
        for d in range(1, top)
    ]
    # The root list runs w descending, so its runs of one w are the groups.
    return (_group_text(group, levels) for _, group in groupby(root, key=itemgetter(0)))


def _group_text(children, levels) -> str:
    lines = []
    _text_lines(children, levels, lines, "(", "", "", "", 0, 0, 0)
    lines.sort(reverse=True)
    return "".join([line for _, line in lines])


def _text_lines(children, levels, lines, head, tail, ranks, colored, key, depth, last) -> None:
    # Appends to ``lines`` the (key, line) of each chain below the node of
    # depth ``depth``, last height ``last`` and line start ``head`` (rows
    # 0..depth-1).  At depth d the rows below the Durfee square are h_d - 1
    # copies of d, then ``tail``: h_j - h_(j+1) - 1 copies of j, j = d - 1 .. 1.
    digit_w, digit_h, numbers, pieces, comma, mark, below_mark = levels[depth]
    for w, h, _, part, below in children:
        try:
            rank, label = pieces[part]
        except KeyError:
            ((size, color),) = part
            rank, label = pieces[part] = (f"{comma}{w - h}", f"{comma}{size}_{color}")
        row, rest = numbers[w + depth], mark * (last - h - 1) + tail
        code = key + w * digit_w + h * digit_h
        if below is None:
            line = f"{head}{row}{below_mark * (h - 1)}{rest}) [{ranks}{rank}] ({colored}{label})\n"
            lines.append((code, line))
        else:
            _text_lines(
                below, levels, lines, head + row, rest, ranks + rank, colored + label, code,
                depth + 1, h,
            )


def render_table(
    params: IdentityParams, n: int, rows: list[TableRow], fmt: str
) -> str:
    if fmt == "text":
        return "".join([
            f"{format_partition(p)} {format_ranks(ranks)} {format_colored(colored)}\n"
            for p, ranks, colored in rows
        ])
    if fmt == "csv":
        return _csv_text(_TABLE_HEADER, _table_cells(rows))
    if fmt == "json":
        payload = {
            "modulus": params.modulus,
            "residue": params.residue,
            "weight": n,
            "rows": list(_json_rows(rows)),
        }
        return canonical_json(payload)
    raise ValueError(f"unknown format {fmt!r}")


def render_coefficients(
    form: str, params: IdentityParams, order: int, coefficients: Sequence[int], fmt: str
) -> str:
    if fmt == "text":
        return " ".join(str(c) for c in coefficients) + "\n"
    if fmt == "csv":
        return _csv_text(("degree", "coefficient"), enumerate(coefficients))
    if fmt == "json":
        payload = {
            "form": form,
            "modulus": params.modulus,
            "residue": params.residue,
            "order": order,
            "coefficients": decimal_strings(coefficients),
        }
        return canonical_json(payload)
    raise ValueError(f"unknown format {fmt!r}")


def render_angles(parts: Partition, fmt: str) -> str:
    decomposition = angles(parts)
    ranks = successive_ranks(parts)
    lengths = angle_lengths(decomposition)
    if fmt == "text":
        widths = tuple(x for x, _ in decomposition)
        heights = tuple(y for _, y in decomposition)
        lines = [
            f"partition: {format_partition(parts)}",
            f"conjugate: {format_partition(conjugate(parts))}",
            f"durfee:    {durfee_size(parts)}",
            f"ranks:     {format_ranks(ranks)}",
            f"widths:    {format_partition(widths)}",
            f"heights:   {format_partition(heights)}",
            f"lengths:   {format_partition(lengths)}",
        ]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(
            ("index", "width", "height", "length", "rank"),
            (
                (i, x, y, length, rank)
                for i, ((x, y), length, rank) in enumerate(
                    zip(decomposition, lengths, ranks), start=1
                )
            ),
        )
    if fmt == "json":
        payload = {
            "partition": list(parts),
            "conjugate": list(conjugate(parts)),
            "durfee": durfee_size(parts),
            "ranks": list(ranks),
            "angles": [
                {"width": x, "height": y, "length": length}
                for (x, y), length in zip(decomposition, lengths)
            ],
        }
        return canonical_json(payload)
    raise ValueError(f"unknown format {fmt!r}")


def render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "text":
        header = ("scope", "params", "span", "checked", "status", "note")
        rows = [
            (scope, params, span, str(checked), "ok" if ok else "FAIL", note)
            for scope, params, span, checked, ok, note in report.records
        ]
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines = [
            "  ".join([cell.ljust(width) for cell, width in zip(row, widths)]).rstrip()
            for row in (header, *rows)
        ]
        verdict = "PASS" if report.passed else "FAIL"
        lines.append("")
        lines.append(
            f"{verdict}: {len(report.records)} cells, "
            f"{report.total_checked} comparisons"
        )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        return _csv_text(CheckRecord._fields, report.records)
    if fmt == "json":
        payload = {
            "title": report.title,
            "passed": report.passed,
            "total_checked": report.total_checked,
            "records": [record._asdict() for record in report.records],
        }
        return canonical_json(payload)
    raise ValueError(f"unknown format {fmt!r}")
