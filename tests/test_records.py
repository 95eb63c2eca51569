"""The package's record types: equality, hashing, immutability, repr and
validation, pinned independently of how each class is declared; and the
import cost of the CLI, which must load neither dataclasses,
importlib.resources nor heapq."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polyrings.gorenstein import (
    Certificate,
    GorensteinVerdict,
    SideSubset,
    Violation,
    is_gorenstein_convex,
)
from polyrings.invariants import Decomposition, InvariantReport, decompose, full_report
from polyrings.polyomino import parse
from polyrings.srcomplex import FlagComplex, build_complex
from polyrings.toric import InitialIdeal, VarOrder, initial_ideal

from pool import fx

SRC = Path(__file__).resolve().parent.parent / "src"

L_SHAPE = ".#\n##"
NON_STACK = "##\n#."

# (class, builder of a fresh record equal on every call, field names)
VALUE_RECORDS = [
    (SideSubset, lambda: SideSubset("X", 5, 3), ("side", "bits", "width")),
    (
        Violation,
        lambda: is_gorenstein_convex(fx("fig8")).violation,
        ("kind", "subset", "observed", "required"),
    ),
    (
        Certificate,
        lambda: is_gorenstein_convex(fx("fig9")).certificates[0],
        ("subset", "neighbors"),
    ),
    (
        GorensteinVerdict,
        lambda: is_gorenstein_convex(fx("fig8")),
        ("gorenstein", "violation", "certificates", "method"),
    ),
    (Decomposition, lambda: decompose(parse(L_SHAPE)), ("v", "p1", "p2")),
]

# (class, builder, whether its fields are frozen) for identity records
IDENTITY_RECORDS = [
    (FlagComplex, lambda: build_complex(parse(L_SHAPE)), False),
    (InvariantReport, lambda: full_report(parse(L_SHAPE)), False),
    (InitialIdeal, lambda: initial_ideal(parse(L_SHAPE)), True),
]


def _name(value):
    return value.__name__ if isinstance(value, type) else None


@pytest.mark.parametrize("cls, build, fields", VALUE_RECORDS, ids=_name)
def test_value_records_compare_and_hash_by_value_and_are_frozen(cls, build, fields):
    a, b = build(), build()
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    assert a == b


def test_value_records_differ_on_any_field():
    x = SideSubset("X", 5, 3)
    assert x != SideSubset("X", 5, 4) != SideSubset("X", 4, 4)
    assert SideSubset("X", 1, 2) != SideSubset("Y", 1, 2)
    y = SideSubset("Y", 2, 2)
    assert Violation("hall", x, 1, 2) != Violation("hall", x, 1, 3)
    assert Certificate(x, y) != Certificate(x, SideSubset("Y", 1, 2))
    assert is_gorenstein_convex(fx("fig8")) != is_gorenstein_convex(fx("fig9"))


@pytest.mark.parametrize("cls, build, frozen", IDENTITY_RECORDS, ids=_name)
def test_identity_records_compare_by_identity(cls, build, frozen):
    a, b = build(), build()
    assert type(a) is cls
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
    if frozen:
        with pytest.raises(AttributeError):
            a.order = b.order


def test_side_and_mixed_subsets_reject_bad_input():
    with pytest.raises(ValueError, match=r"^side must be 'X' or 'Y', not 'Z'$"):
        SideSubset("Z", 1, 2)
    for bits, width in ((8, 3), (-1, 3), (0, -1)):
        with pytest.raises(ValueError, match=r"^bits outside the declared width$"):
            SideSubset("X", bits, width)
    with pytest.raises(ValueError, match=r"^index 4 outside 1\.\.3$"):
        SideSubset.from_indices("X", [1, 4], 3)


def test_record_dunders_keep_their_values():
    assert bool(is_gorenstein_convex(fx("fig8"))) is False
    assert bool(is_gorenstein_convex(fx("fig9"))) is True
    assert bool(GorensteinVerdict(True, None, (), "forced")) is True
    assert bool(GorensteinVerdict(False, None, (), "forced")) is False
    x = SideSubset.from_indices("X", [1, 3], 3)
    assert (len(x), str(x)) == (2, "{x1,x3}")
    assert x.indices() == (1, 3)
    assert str(is_gorenstein_convex(fx("fig8")).violation) == "T={x4,x5,x6}, |N_Y(T)|=3, need 4"
    assert str(is_gorenstein_convex(fx("fig13")).violation) == "T={y1,y2,y3,y4}, |N_X(T)|=3, need 4"


def test_invariant_report_to_dict_keeps_its_keys_and_values():
    got = full_report(parse(L_SHAPE)).to_dict()
    assert got == {
        "m": 3, "n": 3, "d": 5, "a_invariant": -3, "regularity": 2,
        "multiplicity": 5, "h_vector": [1, 3, 1], "gorenstein": True,
        "methods": {
            "a_invariant": "recursion", "gorenstein": "interval criterion",
            "h_vector": "recursion", "multiplicity": "recursion",
            "regularity": "recursion",
        },
        "notes": [],
    }
    assert list(got) == [
        "m", "n", "d", "a_invariant", "regularity", "multiplicity",
        "h_vector", "gorenstein", "methods", "notes",
    ]
    assert list(got["methods"]) == sorted(got["methods"])


def test_records_repr_as_name_and_fields():
    assert repr(SideSubset("X", 5, 3)) == "SideSubset(side='X', bits=5, width=3)"
    assert repr(is_gorenstein_convex(fx("fig9"))) == (
        "GorensteinVerdict(gorenstein=True, violation=None, certificates=("
        "Certificate(subset=SideSubset(side='X', bits=8, width=4), "
        "neighbors=SideSubset(side='Y', bits=6, width=4)), "
        "Certificate(subset=SideSubset(side='X', bits=9, width=4), "
        "neighbors=SideSubset(side='Y', bits=7, width=4))), method='convex')"
    )
    assert repr(is_gorenstein_convex(fx("fig8")).violation) == (
        "Violation(kind='cardinality', subset=SideSubset(side='X', bits=56, width=6), "
        "observed=3, required=4)"
    )
    assert repr(decompose(parse(L_SHAPE))) == (
        "Decomposition(v=(1, 2), p1=Polyomino([(1, 1), (1, 2)]), p2=Polyomino([(1, 1)]))"
    )
    assert repr(full_report(parse(L_SHAPE))) == (
        "InvariantReport(m=3, n=3, d=5, a_invariant=-3, regularity=2, multiplicity=5, "
        "h_vector=(1, 3, 1), gorenstein=True, methods={'a_invariant': 'recursion', "
        "'regularity': 'recursion', 'multiplicity': 'recursion', 'h_vector': 'recursion', "
        "'gorenstein': 'interval criterion'}, notes=())"
    )
    ideal = initial_ideal(parse(NON_STACK))
    assert repr(ideal) == (
        f"InitialIdeal(generators={ideal.generators!r}, order={ideal.order!r})"
    )
    c = build_complex(parse(NON_STACK))
    assert repr(c) == (
        f"FlagComplex(poly={c.poly!r}, order={c.order!r}, vertices={c.vertices!r}, "
        f"forbidden={c.forbidden!r}, d=5)"
    )


def test_records_build_by_position_and_by_keyword():
    x, y = SideSubset("X", 1, 1), SideSubset("Y", 1, 1)
    assert SideSubset(side="X", bits=1, width=1) == x
    viol = Violation(kind="hall", subset=x, observed=0, required=1)
    assert viol == Violation("hall", x, 0, 1)
    cert = Certificate(subset=x, neighbors=y)
    assert cert == Certificate(x, y)
    assert GorensteinVerdict(
        gorenstein=False, violation=viol, certificates=(cert,), method="m"
    ) == GorensteinVerdict(False, viol, (cert,), "m")
    p = parse("#")
    assert Decomposition(v=(1, 1), p1=p, p2=p) == Decomposition((1, 1), p, p)
    rep = InvariantReport(
        m=2, n=2, d=3, a_invariant=-2, regularity=1, multiplicity=2,
        h_vector=(1, 1), gorenstein=True, methods={},
    )
    assert rep.notes == ()
    assert InvariantReport(2, 2, 3, None, None, None, None, False, {}, ("n",)).notes == ("n",)
    order = VarOrder([(2, 2), (2, 1), (1, 2), (1, 1)])
    c = FlagComplex(
        poly=p,
        order=order,
        vertices=tuple(sorted(p.vertices)),
        forbidden=frozenset({frozenset({(1, 1), (2, 2)})}),
        d=3,
    )
    assert (c.poly, c.order, c.d) == (p, order, 3)
    ideal = InitialIdeal(generators=c.forbidden, order=order)
    assert (ideal.generators, ideal.order) == (c.forbidden, order)


def test_cli_import_does_not_load_dataclasses():
    # -S skips site, whose .pth files may load importlib.resources first.
    # The package itself loads exactly the layer modules and defines no
    # function or class: every name has one import path, its module.
    code = (
        "import sys, polyrings; "
        "print(*sorted(m for m in sys.modules if m.startswith('polyrings.'))); "
        "print([k for k, v in vars(polyrings).items() if callable(v)]); "
        "import polyrings.cli; "
        "print(*(m in sys.modules for m in ('dataclasses', 'importlib.resources', 'heapq')))"
    )
    layers = "errors fixtures generate gorenstein invariants polyomino srcomplex toric"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        " ".join(f"polyrings.{name}" for name in layers.split()),
        "[]",
        "False False False",
    ]


def test_no_package_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(from\s+dataclasses\s+import|import\s+dataclasses\b)", re.M)
    files = sorted((SRC / "polyrings").rglob("*.py"))
    assert files
    assert [f.name for f in files if pattern.search(f.read_text())] == []
