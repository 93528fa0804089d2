"""Command-line interface: golden outputs, formats, exit codes, config."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import colorpartitions
from colorpartitions import cli
from colorpartitions.coloring import IdentityParams
from colorpartitions.render import canonical_json
from colorpartitions.verify import CheckRecord, VerificationReport

GOLDEN = pathlib.Path(__file__).parent / "golden"
REFERENCE = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_golden_odd_modulus(capsys):
    code, out, err = run_cli(capsys, "table", "7", "1", "10")
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "table_7_1_10.txt").read_text()
    assert len(out.splitlines()) == 8


def test_tables_match_benchmark_reference_digests(capsys):
    # the benchmark's 20 full-size tables (n = 38 and 40), digest for digest
    reference = json.loads(REFERENCE.read_text())
    keys = sorted(key for key in reference if key.startswith("cli table "))
    assert len(keys) == 20
    for key in keys:
        code, out, _ = run_cli(capsys, *key.split()[1:])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (digest, code) == (reference[key]["sha256"], reference[key]["exit"]), key


def test_table_golden_even_modulus(capsys):
    code, out, _ = run_cli(capsys, "table", "8", "3", "10")
    assert code == 0
    assert out == (GOLDEN / "table_8_3_10.txt").read_text()
    lines = out.splitlines()
    assert len(lines) == 20
    assert "(3,3,3,1) [-1,0,0] (6_1,3_1,1_1)" in lines


def test_table_weight_zero(capsys):
    code, out, _ = run_cli(capsys, "table", "7", "1", "0")
    assert code == 0
    assert out == "() [] ()\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "modulus, residue, weight, count",
    [(5, 1, 200, "22,958,885"), (7, 1, 100, "772,293")],
)
def test_table_refuses_a_request_past_its_row_limit_before_any_work(
    capsys, monkeypatch, modulus, residue, weight, count, fmt
):
    def no_walk(*args):
        raise AssertionError("the table's walk ran")

    # every format's lines come from render._text_lines, which reads the
    # child table _exact_children builds; bijection_rows' walk
    # (families._exact_rows) reads it too, and no format runs it
    monkeypatch.setattr(cli.families, "_exact_children", no_walk)
    monkeypatch.setattr(cli.families, "_exact_rows", no_walk)
    monkeypatch.setattr(cli.render, "_text_lines", no_walk)
    code, out, err = run_cli(
        capsys, "table", str(modulus), str(residue), str(weight), "-f", fmt
    )
    assert (code, out) == (2, "")
    assert f"has {count} rows" in err and "limit of 500,000" in err


def test_table_refuses_a_weight_past_its_weight_limit_before_the_count(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("the row count ran")

    monkeypatch.setattr(cli.families, "rank_window_counts", no_count)
    for weight in (cli.TABLE_WEIGHT_LIMIT + 1, 8000):
        code, out, err = run_cli(capsys, "table", "12", "6", str(weight))
        assert (code, out) == (2, "")
        assert f"weight {weight} is over the limit of {cli.TABLE_WEIGHT_LIMIT}" in err


def test_table_weight_limit_refuses_only_tables_without_rows_or_past_the_row_limit():
    # a count never falls from n to n + 2, and every window holds one of
    # these four (M >= 5: [1, 2] or [0, 1]), so two weights past the limit
    # decide every weight past it
    counts = cli.families.rank_window_counts
    odd, even = cli.TABLE_WEIGHT_LIMIT + 1, cli.TABLE_WEIGHT_LIMIT + 2
    for modulus, residue in ((4, 1), (4, 2), (5, 1), (5, 2)):
        series = counts(IdentityParams(modulus, residue), even)
        assert series[even] > cli.TABLE_ROW_LIMIT
        if (modulus, residue) == (4, 1):  # [1, 1] holds chains of even weight only
            assert series[odd] == 0
        else:
            assert series[odd] > cli.TABLE_ROW_LIMIT
    assert counts(IdentityParams(3, 1), even)[1:] == [0] * even


def test_table_row_limit_admits_the_documented_tables():
    # every benchmark table (n = 38, 40; at most about 9k rows), table 5 1 80
    # and table 12 6 60 stay under the limit
    counts = cli.families.rank_window_counts
    assert counts(IdentityParams(5, 1), 80)[80] == 9_894
    assert counts(IdentityParams(12, 6), 60)[60] == 230_089 <= cli.TABLE_ROW_LIMIT
    reference = json.loads(REFERENCE.read_text())
    for key in (key for key in reference if key.startswith("cli table ")):
        modulus, residue, weight = map(int, key.split()[2:])
        assert counts(IdentityParams(modulus, residue), weight)[weight] <= 10_000


def _no_members(*args):
    raise AssertionError("the member descent ran")


@pytest.mark.parametrize(
    "argv, count",
    [
        (("bijection", "--n-max", "60"), "2,285,110"),
        (("all", "--n-max", "60"), "2,285,110"),
        (("bijection", "--M", "12", "--r", "1", "--n-max", "71"), "2,260,644"),
    ],
)
def test_verify_refuses_a_grid_past_its_member_limit_before_any_work(
    capsys, monkeypatch, argv, count
):
    monkeypatch.setattr(cli.verify, "_members_by_top", _no_members)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"encodes {count} (member, residue) pairs, over the limit of 2,000,000" in err


def test_verify_refuses_a_weight_past_its_weight_limit_before_the_count(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("the member count ran")

    monkeypatch.setattr(cli.verify, "_members_by_top", _no_members)
    monkeypatch.setattr(cli.families, "rank_window_counts", no_count)
    for scope, n_max in (("bijection", cli.VERIFY_WEIGHT_LIMIT + 1), ("all", 8000)):
        code, out, err = run_cli(capsys, "verify", scope, "--n-max", str(n_max))
        assert (code, out) == (2, "")
        assert f"--n-max {n_max} is over the limit of {cli.VERIFY_WEIGHT_LIMIT}" in err
    # an empty selection names itself, whatever its weight
    code, out, err = run_cli(capsys, "verify", "bijection", "--M", "4", "--r", "3", "--n-max", "8000")
    assert (code, out, err) == (2, "", "error: the selection matches no grid cell\n")


def test_verify_weight_limit_refuses_only_the_empty_member_or_grids_past_the_member_limit():
    # a window holds every member of a narrower one, and every window with
    # M >= 4 holds [1, 1] (r = 1) or [0, 0] (r >= 2); the limit is the last
    # weight at which [1, 1] stays under the member limit
    counts = cli.families.rank_window_counts
    limit = cli.VERIFY_WEIGHT_LIMIT
    for residue in (1, 2):
        assert sum(counts(IdentityParams(4, residue), limit + 1)) > cli.VERIFY_MEMBER_LIMIT
    assert sum(counts(IdentityParams(4, 1), limit)) <= cli.VERIFY_MEMBER_LIMIT
    assert counts(IdentityParams(3, 1), limit + 1) == [1] + [0] * (limit + 1)


def test_verify_member_limit_admits_the_documented_grids():
    # the default grid to n = 55, and the CI and benchmark bijection runs
    for scope, moduli, n_max in (
        ("all", cli.verify.DEFAULT_MODULI, 55),
        ("bijection", cli.verify.DEFAULT_MODULI, 40),
        ("bijection", [9], 40),
    ):
        cli._check_member_limit(scope, moduli, None, n_max)


@pytest.mark.parametrize("moduli, residues", [(cli.verify.DEFAULT_MODULI, None), ((9,), (2,))])
def test_verify_member_limit_refuses_exactly_what_the_walk_encodes(monkeypatch, moduli, residues):
    # the bijection records walk at the shape _walk_shape names, and the
    # limit counts the (member, residue) pairs that walk files, so a limit
    # of that count admits the grid and one less refuses it
    real, shapes = cli.verify._members_by_top, []

    def walk(*args):
        shapes.append(args)
        return real(*args)

    monkeypatch.setattr(cli.verify, "_members_by_top", walk)
    cli.verify.verify_identity_grid(moduli, residues, 20, scope="bijection")
    cells = cli.verify._identity_cells(moduli, residues)
    assert shapes == [(*cli.verify._walk_shape(cells), 20)]
    filed = sum(sum(map(sum, counts)) for counts, _ in real(*shapes[0]).values())
    monkeypatch.setattr(cli, "VERIFY_MEMBER_LIMIT", filed)
    cli._check_member_limit("bijection", moduli, residues, 20)
    monkeypatch.setattr(cli, "VERIFY_MEMBER_LIMIT", filed - 1)
    with pytest.raises(ValueError, match=f"encodes {filed:,} \\(member, residue\\) pairs"):
        cli._check_member_limit("bijection", moduli, residues, 20)


def test_verify_counts_reads_no_member_count(capsys, monkeypatch):
    def no_guard(*args):
        raise AssertionError("the member limit was checked")

    monkeypatch.setattr(cli, "_check_member_limit", no_guard)
    code, _, _ = run_cli(capsys, "verify", "counts", "--M", "5", "--n-max", "10")
    assert code == 0


def test_verify_counts_refuses_a_weight_past_its_limit_before_any_work(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("the pair DP ran")

    monkeypatch.setattr(cli.verify.kernels, "count_rank_bounded_partitions", no_count)
    limit = cli.VERIFY_COUNTS_WEIGHT_LIMIT
    assert limit == 1000
    for argv in ((), ("--M", "5", "--r", "1")):
        for n_max in (limit + 1, 100_000):
            code, out, err = run_cli(capsys, "verify", "counts", *argv, "--n-max", str(n_max))
            assert (code, out) == (2, "")
            assert err == f"error: verify counts --n-max {n_max} is over the limit of {limit}\n"


def test_verify_refuses_a_bad_modulus_or_residue_by_its_own_name(capsys):
    for argv, message in (
        (("counts", "--r", "0"), "residue must be >= 1, got 0"),
        (("bijection", "--r", "0"), "residue must be >= 1, got 0"),
        (("finitized", "--r", "0"), "residue must be >= 1, got 0"),
        (("finitized", "--k", "3", "--r", "-1"), "residue must be >= 1, got -1"),
        (("counts", "--M", "0"), "modulus must be >= 3, got 0"),
        (("bijection", "--M", "1"), "modulus must be >= 3, got 1"),
        (("counts", "--M", "2"), "modulus must be >= 3, got 2"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_coeffs_refuses_an_order_past_its_limit_before_any_series(capsys, monkeypatch):
    def no_series(*args):
        raise AssertionError("a series was built")

    limit = cli.COEFFS_ORDER_LIMIT
    for name in ("restricted_product", "bosonic_sum", "fermionic_multisum"):
        monkeypatch.setattr(cli.series, name, no_series)
    for form in ("product", "bosonic", "fermionic"):
        for order in (limit + 1, 1_000_000):
            code, out, err = run_cli(capsys, "coeffs", form, "5", "1", str(order))
            assert (code, out) == (2, "")
            assert err == f"error: coeffs order {order} is over the limit of {limit}\n"


def test_coeffs_order_limit_admits_the_documented_orders(capsys):
    # the benchmark asks for orders up to 300 and CI for 400; the limit
    # itself is admitted
    limit = cli.COEFFS_ORDER_LIMIT
    assert limit >= 400
    code, out, err = run_cli(capsys, "coeffs", "product", "5", "1", str(limit))
    assert (code, err) == (0, "")
    assert len(out.split()) == limit + 1


@pytest.mark.parametrize(
    "handler, argv",
    [
        ("_cmd_verify", ("verify", "counts", "--n-max", "100000")),
        ("_cmd_table", ("table", "5", "1", "10")),
    ],
)
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, handler, argv):
    # exit 1 means a failed identity, so a MemoryError inside a command is
    # reported as a usage error; the handler raises it without allocating
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, handler, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]} ran out of memory\n"


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "7", "1", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "partition,ranks,colored"
    assert lines[1] == '"(7,1,1,1)",[3],(10_2)'
    assert lines[2] == '"(6,4)","[4,2]","(7_2,3_1)"'
    assert len(lines) == 9


def test_table_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "table", "8", "3", "10", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert canonical_json(payload) == out  # byte-stable serialization
    assert payload["modulus"] == 8
    assert payload["weight"] == 10
    assert len(payload["rows"]) == 20
    first = payload["rows"][0]
    assert first["partition"] == [7, 1, 1, 1]
    assert first["colored"] == [[10, 3]]


def test_coeffs_text(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "fermionic", "5", "2", "10")
    assert code == 0
    assert out == "1 1 1 1 2 2 3 3 4 5 6\n"


@pytest.mark.parametrize("modulus,residue,order", [(13, 4, 170), (11, 5, 220), (8, 4, 300)])
def test_coeffs_fermionic_golden(capsys, modulus, residue, order):
    args = (str(modulus), str(residue), str(order))
    code, out, _ = run_cli(capsys, "coeffs", "fermionic", *args)
    assert code == 0
    assert out == (GOLDEN / f"coeffs_fermionic_{'_'.join(args)}.txt").read_text()


def test_verify_finitized_golden(capsys):
    # pins every cell's checked count, which follows the alternating side's degree
    code, out, _ = run_cli(capsys, "verify", "finitized", "-f", "json")
    assert code == 0
    assert out == (GOLDEN / "verify_finitized.json").read_text()


def test_coeffs_forms_agree(capsys):
    _, product, _ = run_cli(capsys, "coeffs", "product", "7", "3", "20")
    _, bosonic, _ = run_cli(capsys, "coeffs", "bosonic", "7", "3", "20")
    _, fermionic, _ = run_cli(capsys, "coeffs", "fermionic", "7", "3", "20")
    assert product == bosonic == fermionic


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "product", "5", "2", "4", "-f", "csv")
    assert code == 0
    assert out == "degree,coefficient\n0,1\n1,1\n2,1\n3,1\n4,2\n"


def test_coeffs_json_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "bosonic", "5", "2", "6", "-f", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"] == ["1", "1", "1", "1", "2", "2", "3"]
    assert canonical_json(payload) == out


def test_angles_text(capsys):
    code, out, _ = run_cli(capsys, "angles", "7,5,5,5,4,4,2")
    assert code == 0
    assert out == (
        "partition: (7,5,5,5,4,4,2)\n"
        "conjugate: (7,7,6,6,4,1,1)\n"
        "durfee:    4\n"
        "ranks:     [0,-2,-1,-1]\n"
        "widths:    (7,4,3,2)\n"
        "heights:   (7,6,4,3)\n"
        "lengths:   (13,9,6,4)\n"
    )


def test_angles_csv(capsys):
    code, out, _ = run_cli(capsys, "angles", "4,3,2", "-f", "csv")
    assert code == 0
    assert out == "index,width,height,length,rank\n1,4,3,6,1\n2,2,2,3,0\n"


def test_angles_json(capsys):
    code, out, _ = run_cli(capsys, "angles", "4,3,2", "-f", "json")
    payload = json.loads(out)
    assert payload["durfee"] == 2
    assert payload["angles"] == [
        {"width": 4, "height": 3, "length": 6},
        {"width": 2, "height": 2, "length": 3},
    ]
    assert canonical_json(payload) == out


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bijection", "--M", "7", "--n-max", "10"
    )
    assert code == 0
    assert "PASS: 3 cells" in out
    assert "FAIL" not in out


def test_verify_gordon_single_pair(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "gordon", "--k", "2", "--r", "2", "--n-max", "12"
    )
    assert code == 0
    assert "k=2 r=2" in out


def test_verify_finitized_cell(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "finitized",
        "--k",
        "3",
        "--r",
        "2",
        "--parity",
        "even",
        "--N-max",
        "5",
    )
    assert code == 0
    assert "even k=3 r=2" in out


def test_verify_finitized_half_one(capsys):
    # k = 1 has one odd cell (M = 3) and no even one: modulus 2 is no cell,
    # as residues above the half are no cells
    code, out, err = run_cli(capsys, "verify", "finitized", "--k", "1")
    assert code == 0
    assert err == ""
    assert "odd k=1 r=1" in out
    assert "even" not in out
    code, out, err = run_cli(capsys, "verify", "finitized", "--k", "1", "--parity", "even")
    assert code == 2
    assert out == ""
    assert err == "error: the selection matches no grid cell\n"


def test_verify_finitized_refuses_half_modulus_below_one(capsys):
    # named as verify gordon --k 0 names it, not as a selection of no cell
    for k in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "finitized", "--k", k)
        assert code == 2
        assert out == ""
        assert err == f"error: half_modulus must be >= 1, got {k}\n"


def test_verify_failure_exit_one(capsys, monkeypatch):
    # exit-code contract: a failed identity turns into exit status 1
    broken = VerificationReport(
        "gordon grid",
        (CheckRecord("gordon", "k=2 r=1", "n<=5", 3, False, "n=2: 1 members vs 2"),),
    )
    monkeypatch.setattr(cli.verify, "verify_gordon_grid", lambda *a, **k: broken)
    code, out, _ = run_cli(capsys, "verify", "gordon")
    assert code == 1
    assert "FAIL" in out
    assert "n=2: 1 members vs 2" in out


def test_verify_undecodable_member_exit_one(capsys, monkeypatch):
    real = cli.verify.color_map
    shifted = lambda p, params: tuple(
        (size, color + params.color_count) for size, color in real(p, params)
    )
    monkeypatch.setattr(cli.verify, "color_map", shifted)
    code, out, _ = run_cli(
        capsys, "verify", "bijection", "--M", "7", "--r", "1", "--n-max", "6"
    )
    assert code == 1
    assert "not decodable" in out


def test_verify_report_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "counts", "--M", "5", "--n-max", "8", "-f", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert [r["params"] for r in payload["records"]] == ["M=5 r=1", "M=5 r=2"]
    assert canonical_json(payload) == out


def test_error_exit_two(capsys):
    # domain errors are reported on stderr with exit status 2
    code, out, err = run_cli(capsys, "table", "7", "5", "10")  # residue too big
    assert code == 2
    assert out == ""
    assert err.startswith("error:")

    code, _, err = run_cli(capsys, "table", "7", "1", "-3")
    assert code == 2
    assert "weight" in err

    code, _, err = run_cli(capsys, "angles", "3,5,1")  # increasing parts
    assert code == 2
    assert err.startswith("error:")

    # negative bounds and selections matching no grid cell are usage errors,
    # not failed verifications
    for argv in (
        ("verify", "counts", "--n-max", "-1"),
        ("verify", "finitized", "--N-max", "-1"),
        ("verify", "finitized", "--k", "2", "--r", "9"),
        ("verify", "finitized", "--k", "0"),
        ("verify", "counts", "--M", "5", "--r", "3"),
        ("coeffs", "bosonic", "7", "1", "-1"),
        # flags the scope does not read
        ("verify", "all", "--M", "7"),
        ("verify", "all", "--N-max", "2"),
        ("verify", "counts", "--k", "3", "--N-max", "4"),
        ("verify", "gordon", "--M", "9"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["unknown-command"])
    assert info.value.code == 2


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "table", "7", "1", "10", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "table_7_1_10.txt").read_text()


def test_table_writes_one_first_width_group_at_a_time(monkeypatch):
    # table 10 5 40 (8,826 rows) reaches stdout in 18 writes, one per first
    # part, and they join to the reference bytes
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Sink())
    assert cli.main(["table", "10", "5", "40"]) == 0
    digest = hashlib.sha256("".join(writes).encode()).hexdigest()
    assert digest == "81d86825088b54862f63a3decf555f708efe73f596503d8d30ae66974dcc5e0e"
    assert len(writes) == 18
    firsts = [int(text[1:].split(",")[0]) for text in writes]
    assert firsts == sorted(set(firsts), reverse=True)


def test_table_out_of_memory_partway_keeps_the_written_groups(capsys, monkeypatch):
    # the groups written before the failure stay written, and it exits 2
    whole = cli.render.table_text(IdentityParams(7, 1), 10)
    group_text, made = cli.render._group_text, []

    def second_fails(children, levels):
        if made:
            raise MemoryError
        made.append(group_text(children, levels))
        return made[0]

    monkeypatch.setattr(cli.render, "_group_text", second_fails)
    code, out, err = run_cli(capsys, "table", "7", "1", "10")
    assert (code, err) == (2, "error: table ran out of memory\n")
    assert out == made[0] == whole.splitlines(keepends=True)[0]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_output_file_holds_the_stdout_bytes(tmp_path, capsys, fmt):
    target = tmp_path / f"table.{fmt}"
    code, out, _ = run_cli(capsys, "table", "10", "5", "40", "-f", fmt)
    assert code == 0 and out
    code, written, _ = run_cli(capsys, "table", "10", "5", "40", "-f", fmt, "-o", str(target))
    assert (code, written) == (0, "")
    assert target.read_bytes() == out.encode()


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "json"}))
    code, out, _ = run_cli(capsys, "coeffs", "product", "5", "2", "3", "--config", str(config))
    assert code == 0
    json.loads(out)  # config selected JSON output

    # explicit flag beats the config value
    code, out, _ = run_cli(
        capsys, "coeffs", "product", "5", "2", "3", "--config", str(config), "-f", "text"
    )
    assert code == 0
    assert out == "1 1 1 1\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("main built a parser again")

    run_cli(capsys, "coeffs", "product", "5", "2", "3")
    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert run_cli(capsys, "coeffs", "product", "5", "2", "3") == (0, "1 1 1 1\n", "")


def test_reused_parser_keeps_no_flag_between_calls(tmp_path, capsys):
    # main reuses one parser, so each call must start from its defaults
    text = (0, "1 1 1 1\n", "")
    code, out, _ = run_cli(capsys, "coeffs", "product", "5", "2", "3", "-f", "json")
    assert code == 0
    json.loads(out)
    assert run_cli(capsys, "coeffs", "product", "5", "2", "3") == text

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv", "output": str(tmp_path / "out.csv")}))
    code, out, _ = run_cli(capsys, "coeffs", "product", "5", "2", "3", "--config", str(config))
    assert (code, out) == (0, "")
    assert run_cli(capsys, "coeffs", "product", "5", "2", "3") == text

    with pytest.raises(SystemExit) as info:
        cli.main(["coeffs", "product", "5", "2"])  # the order is missing
    assert info.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "coeffs", "product", "5", "2", "3") == text


def test_config_output_redirect(tmp_path, capsys):
    target = tmp_path / "report.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "csv", "output": str(target)}))
    code, out, _ = run_cli(
        capsys, "verify", "counts", "--M", "5", "--n-max", "6", "--config", str(config)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("scope,params,span,checked,ok,note")


def test_bad_config_exit_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(["not", "a", "dict"]))
    code, _, err = run_cli(capsys, "table", "7", "1", "4", "--config", str(config))
    assert code == 2
    assert "config" in err

    code, _, err = run_cli(capsys, "table", "7", "1", "4", "--config", str(tmp_path / "absent.json"))
    assert code == 2

    config.write_text(json.dumps({"format": "yaml"}))
    code, _, err = run_cli(capsys, "table", "7", "1", "4", "--config", str(config))
    assert code == 2
    assert "format" in err

    # a non-string output would be opened as a file descriptor and closed
    for value in (2, True, 1.5):
        config.write_text(json.dumps({"output": value}))
        code, out, err = run_cli(capsys, "table", "7", "1", "4", "--config", str(config))
        assert code == 2, value
        assert out == ""
        assert "output" in err
    os.fstat(1)
    os.fstat(2)  # stdout and stderr are still open
    print("still writable", file=sys.stderr)
    assert capsys.readouterr().err == "still writable\n"


def _child_env():
    # the environment for a child that imports the same package as this
    # test, installed or not
    package_root = pathlib.Path(colorpartitions.__file__).parents[1]
    search = [str(package_root), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))}


def test_module_entry_point():
    # python -m colorpartitions mirrors the console script
    result = subprocess.run(
        [sys.executable, "-m", "colorpartitions", "coeffs", "fermionic", "5", "2", "10"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "1 1 1 1 2 2 3 3 4 5 6\n"


def test_closed_stdout_is_not_an_error():
    # A reader that stops after one line of a table far larger than the pipe
    # buffer (table 12 6 40 is some 700 kB): the output stops there, with
    # nothing on stderr and the table's own exit code.
    child = subprocess.Popen(
        [sys.executable, "-m", "colorpartitions", "table", "12", "6", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 0
    assert first == b"(22,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1) [4,0] (39_5,1_3)\n"
    assert err == b""
