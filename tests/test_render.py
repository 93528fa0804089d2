"""Table rows: the pair-chain build against the per-member route, and formats."""

import csv
import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorpartitions import (
    IdentityParams,
    color_map,
    format_colored,
    format_partition,
    rank_window_counts,
    rank_window_members,
    successive_ranks,
)
from colorpartitions import cli, families, render
from colorpartitions.coloring import _decode_part
from colorpartitions.partitions import _rows_from_pairs
from colorpartitions.render import (
    bijection_rows,
    format_ranks,
    render_report,
    render_table,
    table_chunks,
    table_text,
)
from colorpartitions.verify import CheckRecord, VerificationReport


@settings(max_examples=150, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 12), n=st.integers(0, 16))
def test_bijection_rows_match_the_per_member_route(data, modulus, n):
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    expected = [
        (p, successive_ranks(p), color_map(p, params))
        for p in rank_window_members(params, n)
    ]
    assert bijection_rows(params, n) == expected
    r = params.residue
    for width in range(1, n + 1):
        for height in range(1, n + 2 - width):
            if params.rank_in_window(width - height):
                (part,) = color_map(_rows_from_pairs([(width, height)]), params)
                assert part[0] == width + height - 1
                assert _decode_part(*part, r) == (width, height)


def test_bijection_rows_encode_through_color_map(capsys, monkeypatch):
    # the table's parts come from color_map, so a changed encoding shows in
    # its rows: one more color on every part of size 7 or more
    def bump(colored):
        return tuple((size, color + (size >= 7)) for size, color in colored)

    params = IdentityParams(9, 2)
    rows = bijection_rows(params, 12)
    monkeypatch.setattr(families, "color_map", lambda parts, params: bump(color_map(parts, params)))
    expected = [(p, ranks, bump(colored)) for p, ranks, colored in rows]
    assert bijection_rows(params, 12) == expected != rows
    # and so does the CLI's text table, which the text walk builds
    assert cli.main(["table", "9", "2", "12"]) == 0
    text = capsys.readouterr().out
    assert text == render_table(params, 12, expected, "text")
    assert text != render_table(params, 12, rows, "text")


@pytest.mark.parametrize("n", [3.0, -1, True])
def test_bijection_rows_refuse_a_bad_weight_by_name(n):
    with pytest.raises(ValueError, match="n must"):
        bijection_rows(IdentityParams(7, 1), n)
    with pytest.raises(ValueError, match="n must"):
        table_text(IdentityParams(7, 1), n)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 14), n=st.integers(0, 24))
def test_text_walk_matches_the_row_path(data, modulus, n):
    # the text walk's oracle: the rows render_table formats line by line
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    assert table_text(params, n) == render_table(params, n, bijection_rows(params, n), "text")


def test_text_walk_at_weight_zero_and_modulus_three():
    # weight 0 has the empty member alone; M = 3 (window [1, 0]) holds no
    # other member
    for modulus, residue in ((3, 1), (7, 1), (14, 7)):
        assert table_text(IdentityParams(modulus, residue), 0) == "() [] ()\n"
    assert all(table_text(IdentityParams(3, 1), n) == "" for n in range(1, 25))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 14), n=st.integers(0, 24))
def test_table_chunks_are_the_first_width_groups(data, modulus, n):
    # text and CSV come one first part at a time, largest first (CSV's
    # header first), and the pieces join to render_table's bytes
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    rows = bijection_rows(params, n)
    header, *csv_chunks = table_chunks(params, n, "csv")
    assert header == "partition,ranks,colored\n"
    for fmt, chunks in (("text", list(table_chunks(params, n, "text"))), ("csv", csv_chunks)):
        assert "".join([header] * (fmt == "csv") + chunks) == render_table(params, n, rows, fmt)
        firsts = []
        for chunk in chunks:
            lines = chunk.splitlines()
            if fmt == "csv":
                lines = [line for line, *_ in csv.reader(lines)]
            tops = {int(line[1:].split(",")[0].split(")")[0] or 0) for line in lines}
            assert chunk and len(tops) == 1, (fmt, chunk)
            firsts += tops
        assert firsts == sorted(set(firsts), reverse=True)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), modulus=st.integers(3, 13), n=st.integers(0, 24))
def test_json_chunks_join_to_the_whole_payload(data, modulus, n):
    # JSON comes as its head, one piece per first-width group, and its tail,
    # and the pieces join to render_table's canonical bytes (at n = 0 too,
    # and with no rows at all, as at M = 3)
    params = IdentityParams(modulus, data.draw(st.integers(1, modulus // 2)))
    whole = render_table(params, n, bijection_rows(params, n), "json")
    assert "".join(table_chunks(params, n, "json")) == whole


def test_cli_table_writes_every_format_from_the_text_walk(capsys, monkeypatch):
    # CSV and JSON re-spell the text walk's lines: no row tuple, cell tuple
    # or row object is made for any format, and the bytes are render_table's
    params = IdentityParams(10, 5)
    rows = bijection_rows(params, 30)
    expected = {fmt: render_table(params, 30, rows, fmt) for fmt in ("text", "csv", "json")}

    def no_rows(*args):
        raise AssertionError("the row path ran")

    monkeypatch.setattr(families, "_exact_rows", no_rows)
    monkeypatch.setattr(render, "_table_cells", no_rows)
    monkeypatch.setattr(render, "_json_rows", no_rows)
    for fmt, whole in expected.items():
        assert cli.main(["table", "10", "5", "30", "-f", fmt]) == 0
        assert capsys.readouterr().out == whole, fmt


def test_table_chunks_refuse_before_the_first_piece():
    for fmt in ("text", "csv", "json"):
        with pytest.raises(ValueError, match="n must"):
            table_chunks(IdentityParams(7, 1), -1, fmt)
    with pytest.raises(ValueError, match="unknown format"):
        table_chunks(IdentityParams(7, 1), 5, "xml")


def _traced_peaks(monkeypatch, *runs):
    # each run's traced peak above its start, with stdout a sink; the caller
    # warms every run up first, so no peak counts a one-off cost
    class Sink:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    cli._parser()
    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        peaks = []
        for run in runs:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    return peaks


def test_streamed_table_peaks_below_half_the_whole_text(monkeypatch):
    # cli table writes each first-width group as it is made, so its traced
    # peak stays below half that of the whole table's text held at once (0.43
    # against 0.97 MB under Python 3.11: the largest of the 18 groups holds
    # 1,637 of the 8,826 lines, and both peaks hold the child table)
    params = IdentityParams(10, 5)
    table_text(params, 40)
    whole, streamed = _traced_peaks(
        monkeypatch, lambda: table_text(params, 40), lambda: cli.main(["table", "10", "5", "40"])
    )
    assert streamed < whole / 2, (streamed, whole)


def test_streamed_json_table_peaks_below_half_the_whole_payload(monkeypatch):
    # cli table -f json writes its head, each first-width group's rows and
    # its tail as they are made, so its traced peak stays below half that of
    # the whole payload held at once (0.38 against 6.3 MB under Python 3.11
    # at 1,772 rows; at table 10 5 40 the peaks are 1.8 and 36 MB, but the
    # whole payload goes through the standard library's pure-Python indenting
    # encoder, which takes some 4 s to trace there, the stream 0.3 s)
    params = IdentityParams(10, 5)
    whole_payload = lambda: render_table(params, 30, bijection_rows(params, 30), "json")
    whole_payload()
    whole, streamed = _traced_peaks(
        monkeypatch, whole_payload, lambda: cli.main(["table", "10", "5", "30", "-f", "json"])
    )
    assert streamed < whole / 2, (streamed, whole)


def _text_row(p, ranks, colored):
    return format_partition(p) + " " + format_ranks(ranks) + " " + format_colored(colored)


PARTS = st.lists(st.integers(1, 120), max_size=6).map(lambda xs: tuple(sorted(xs, reverse=True)))
RANKS = st.lists(st.integers(-12, 12), max_size=4).map(tuple)
COLORED = st.lists(st.tuples(st.integers(1, 120), st.integers(0, 6)), max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(PARTS, RANKS, COLORED), max_size=8))
def test_inline_text_rows_match_the_format_helpers(rows):
    expected = "".join(_text_row(*row) + "\n" for row in rows)
    assert render_table(IdentityParams(7, 1), 0, rows, "text") == expected


def test_every_format_shows_the_same_rows(capsys):
    def table(fmt):
        assert cli.main(["table", "10", "5", "38", "-f", fmt]) == 0
        return capsys.readouterr().out

    text = table("text").splitlines()
    assert len(text) == rank_window_counts(IdentityParams(10, 5), 38)[38] == 6_499
    rows = list(csv.reader(io.StringIO(table("csv"))))
    assert rows[0] == ["partition", "ranks", "colored"]
    assert [" ".join(fields) for fields in rows[1:]] == text
    payload = json.loads(table("json"))
    assert (payload["modulus"], payload["residue"], payload["weight"]) == (10, 5, 38)
    assert [
        _text_row(tuple(row["partition"]), row["ranks"], tuple(map(tuple, row["colored"])))
        for row in payload["rows"]
    ] == text


def test_report_text_and_csv_keep_their_bytes():
    # CSV is CheckRecord's fields, header included; the text table pads each
    # column to its widest cell, the header's when there are no records
    empty = VerificationReport("none")
    assert render_report(empty, "text") == (
        "scope  params  span  checked  status  note\n\nPASS: 0 cells, 0 comparisons\n"
    )
    assert render_report(empty, "csv") == "scope,params,span,checked,ok,note\n"
    two = VerificationReport("two", (
        CheckRecord("bijection", "M=7 r=1", "n<=30", 1234, True),
        CheckRecord("finitized", "M=10 r=3", "N<=8", 7, False, "first difference at q^5"),
    ))
    assert render_report(two, "text") == (
        "scope      params    span   checked  status  note\n"
        "bijection  M=7 r=1   n<=30  1234     ok\n"
        "finitized  M=10 r=3  N<=8   7        FAIL    first difference at q^5\n"
        "\n"
        "FAIL: 2 cells, 1241 comparisons\n"
    )
    assert render_report(two, "csv") == (
        "scope,params,span,checked,ok,note\n"
        "bijection,M=7 r=1,n<=30,1234,True,\n"
        "finitized,M=10 r=3,N<=8,7,False,first difference at q^5\n"
    )
