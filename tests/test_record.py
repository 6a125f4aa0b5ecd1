"""Value semantics of the package's immutable records, and the start-up
import set of the `bcn` command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcnkit
from bcnkit import observe  # noqa: F401  (with what it imports, every module that defines a record)
from bcnkit.compiler import LogicalMatrix
from bcnkit.netlang import And, Const, NetworkModel, Not, Or, Var, parse_network
from bcnkit.reach import SetFamily, StateSet
from bcnkit.record import Record


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_every_record_declares_its_fields():
    classes = list(_records())
    assert {cls.__name__ for cls in classes} == {
        "Const", "Var", "Not", "And", "Or", "Xor", "Implies", "Iff", "_Tok", "NetworkModel",
        "LogicalMatrix", "AlgebraicForm", "StateSet", "SetFamily", "PairPartition",
        "ObservabilityReport",
    }
    for cls in classes:
        assert tuple(cls.__dict__["__annotations__"]) == cls.__dict__["__slots__"], cls


def test_equality_needs_the_same_type():
    x, y = Var("x"), Var("y")
    assert And(x, y) == And(Var("x"), Var("y"))
    assert And(x, y) != Or(x, y)
    assert And(x, y) != And(y, x)
    assert Var("x") != ("x",)
    assert Var("x") != "x"
    assert Const(1) != Var(1)


def test_equal_records_hash_equal():
    a = And(Var("x"), Const(1))
    b = And(Var("x"), Const(1))
    assert a is not b and hash(a) == hash(b)
    assert len({a, b, Or(Var("x"), Const(1))}) == 2


def test_deep_records_compare_and_hash_without_recursion():
    # 3000 nested records, beyond the interpreter's recursion limit.
    head = "network f\nstates: x1, x2\nx1' = x1\nx2' = "
    a = parse_network(head + " & ".join(["x1"] * 3000) + "\n")
    b = parse_network(head + " & ".join(["x1"] * 3000) + "\n")
    c = parse_network(head + " & ".join(["x1"] * 2999 + ["x2"]) + "\n")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c


def test_keyword_and_positional_construction_agree():
    fields = dict(name="k", states=("x1",), inputs=(), outputs=(),
                  updates=(Var("x1"),), output_maps=())
    by_keyword = NetworkModel(**fields)
    assert by_keyword == NetworkModel(*fields.values())
    assert by_keyword == NetworkModel("k", ("x1",), (), (), updates=(Var("x1"),), output_maps=())
    assert by_keyword.states == ("x1",)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                                 # missing field
    (("x", "y"), {}),                         # too many fields
    ((), {"label": "x"}),                     # unknown field
    (("x",), {"name": "y"}),                  # field given twice
])
def test_bad_construction_rejected(args, kwargs):
    with pytest.raises(TypeError):
        Var(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    v = Var("x")
    with pytest.raises(AttributeError):
        v.name = "y"
    with pytest.raises(AttributeError):
        del v.name
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v.name == "x"


def test_repr_names_every_field():
    assert repr(And(Var("x"), Const(1))) == "And(left=Var(name='x'), right=Const(value=1))"


def test_deep_record_repr_without_recursion():
    # 5000 nested records, beyond the interpreter's recursion limit.
    expr = Var("x")
    for _ in range(5000):
        expr = Not(expr)
    assert repr(expr) == "Not(operand=" * 5000 + "Var(name='x')" + ")" * 5000


def test_set_family_duplicates():
    a, b = StateSet(4, (1,)), StateSet(4, (2, 1))
    fam = SetFamily(4, (a, b, StateSet(4, (1, 2)), a, a))
    assert fam.duplicates() == (
        "set #3 duplicates set #2", "set #4 duplicates set #1", "set #5 duplicates set #1",
    )
    assert SetFamily(4, (a, b)).duplicates() == ()
    assert fam == SetFamily(4, fam.sets) and hash(fam) == hash(SetFamily(4, fam.sets))
    with pytest.raises(TypeError, match="takes the fields"):
        SetFamily(4, (a,), warnings=())


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="^2 state indices outside 1..4, the first 0$"):
        StateSet(4, (0, 5))
    with pytest.raises(ValueError, match="^1 state index outside 1..4, the first an integer of 21 digits$"):
        StateSet(4, (1, -10 ** 20))
    with pytest.raises(ValueError, match="outside 1..2"):
        LogicalMatrix(2, (1, 3))
    assert StateSet(4, (3, 1, 3)).members == (1, 3)


def test_cli_import_loads_no_dataclasses():
    """`bcn` pays for every module it imports on each run, and the records
    need no `dataclasses`."""
    src = str(Path(bcnkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import sys; before = set(sys.modules); import bcnkit.cli; "
             "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "bcnkit.cli" in added
    assert "dataclasses" not in added
