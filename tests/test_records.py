"""The package's value records: import cost, construction, equality, pickling."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import colorpartitions
from colorpartitions import IdentityParams
from colorpartitions.coloring import _PASSED, ConditionCheck, check_conditions
from colorpartitions.families import FamilySpec
from colorpartitions.verify import CheckRecord, VerificationReport

P71 = IdentityParams(7, 1)
RECORD = CheckRecord("gordon", "k=2 r=1", "n<=10", 11, True)
RECORDS = (
    P71,
    ConditionCheck(False, "ii", 2),
    FamilySpec("boxed", 9, params=P71, max_part=5, max_length=4),
    RECORD,
    VerificationReport("demo", (RECORD,)),
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are plain classes and NamedTuples, so process start does
    # not pay for dataclasses and the inspect/ast/dis modules it pulls in
    package_root = pathlib.Path(colorpartitions.__file__).parents[1]
    search = [str(package_root), os.environ.get("PYTHONPATH", "")]
    probe = "import sys, colorpartitions.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, search))},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_keyword_construction_and_defaults():
    assert IdentityParams(modulus=7, residue=1) == P71
    assert ConditionCheck(ok=True) == (True, None, None)
    spec = FamilySpec(tag="gap2", n=9)
    assert (spec.params, spec.max_part, spec.max_length, spec.min_part) == (None, None, None, 1)
    record = CheckRecord(scope="gordon", params="k=2 r=1", span="n<=10", checked=11, ok=True)
    assert record == RECORD and record.note == ""
    assert VerificationReport(title="empty").records == ()
    assert VerificationReport("a").records is VerificationReport("b").records


def test_equality_and_hash():
    assert P71 == IdentityParams(7, 1) and hash(P71) == hash(IdentityParams(7, 1))
    assert hash(P71) == hash((7, 1)) != hash(IdentityParams(7, 2))
    assert P71 != IdentityParams(7, 2) and P71 != IdentityParams(8, 1)
    assert IdentityParams(7, 1) != (7, 1)
    assert P71.__eq__((7, 1)) is NotImplemented
    cells = [IdentityParams(m, r) for m in range(3, 14) for r in range(1, m // 2 + 1)]
    assert len(set(cells)) == len(cells) == 41
    # the four records are tuples: equal to a plain tuple of their values
    assert RECORD == ("gordon", "k=2 r=1", "n<=10", 11, True, "")
    assert hash(RECORD) == hash(tuple(RECORD))
    assert ConditionCheck(False, "i", 3) != ConditionCheck(False, "i", 4)
    scope, *_, note = RECORD
    assert (scope, note, RECORD[3]) == ("gordon", "", 11)
    assert ConditionCheck(False, "ii", 2).index == 2  # the field shadows tuple.index


def test_truth_values():
    # a failed check is false although it is a non-empty tuple
    assert not ConditionCheck(False, "i", 1)
    assert ConditionCheck(True)


def test_repr_text():
    assert repr(P71) == "IdentityParams(modulus=7, residue=1)"
    assert repr(ConditionCheck(True)) == "ConditionCheck(ok=True, violation=None, index=None)"
    assert repr(FamilySpec("gap2", 9)) == (
        "FamilySpec(tag='gap2', n=9, params=None, max_part=None, max_length=None, min_part=1)"
    )
    assert repr(RECORD) == (
        "CheckRecord(scope='gordon', params='k=2 r=1', span='n<=10', checked=11, ok=True, note='')"
    )
    assert repr(VerificationReport("empty")) == "VerificationReport(title='empty', records=())"


@pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
def test_records_refuse_assignment_and_deletion(value):
    name = type(value)._fields[0] if hasattr(type(value), "_fields") else "modulus"
    with pytest.raises(AttributeError):
        setattr(value, name, 3)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either
    assert getattr(value, name) == getattr(copy.copy(value), name)


def test_identity_params_refuses_assignment_to_derived_values():
    for name in ("max_rank", "has_product_form"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(P71, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(P71, name)
    assert P71.max_rank == 4


@pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
def test_pickle_and_deepcopy_round_trips(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)
        assert hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_identity_params_copies_keep_derived_values():
    params = IdentityParams(8, 4)
    for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params)):
        assert (clone.max_rank, clone.color_count, clone.has_product_form) == (2, 3, False)


def test_identity_params_validation_messages():
    for args, message in (
        ((7.0, 1), "modulus must be an int, got 7.0"),
        ((5, True), "residue must be an int, got True"),
        ((2, 1), "modulus must be >= 3, got 2"),
        ((7, 4), "residue must satisfy 0 < r <= M/2, got r=4 for M=7"),
        ((7, 0), "residue must satisfy 0 < r <= M/2, got r=0 for M=7"),
    ):
        with pytest.raises(ValueError) as info:
            IdentityParams(*args)
        assert str(info.value) == message


def test_identity_params_derived_values_match_their_formulas():
    for m in range(3, 14):
        for r in range(1, m // 2 + 1):
            params = IdentityParams(m, r)
            assert (params.modulus, params.residue) == (m, r)
            assert hash(params) == hash((m, r))
            assert params.half_modulus == m // 2
            assert params.is_odd is (m % 2 == 1)
            assert params.color_count == m // 2 - 1
            assert params.has_product_form is (2 * r < m)
            assert (params.min_rank, params.max_rank) == (2 - r, m - r - 2)
            assert [params.rank_in_window(v) for v in range(-m, m)] == [
                2 - r <= v <= m - r - 2 for v in range(-m, m)
            ]


def test_passing_checks_share_one_instance():
    assert check_conditions(((7, 2), (3, 1)), P71) is _PASSED
    assert check_conditions((), IdentityParams(8, 3)) is _PASSED
    assert check_conditions(((1, 1),), P71) == ConditionCheck(False, "i", 1)
