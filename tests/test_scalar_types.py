"""Every scalar the package produces is an int, a Fraction or a Cyclo.

No float or bool can enter: the tables of the examples, every report
the snapshot test renders (witnesses included) and the carriers that
split_idempotent returns are walked scalar by scalar.
"""

from fractions import Fraction

import pytest

import test_report_snapshot as snap
from whakit.linalg import LinMap, split_idempotent
from whakit.module_cat import (regular_module, triple_projector,
                               truncation_projector, unit_object)
from whakit.quasitriangular import certify_quasitriangular, solve_r_bar
from whakit.scalars import Cyclo, Field, render_scalar
from whakit.weak_hopf import certify

SCALARS = (int, Fraction, Cyclo)


def walk(obj, out):
    """Collect every leaf of a witness or table that is not a str or None;
    dict keys are basis indices, so they are collected too."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            walk(k, out)
            walk(v, out)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            walk(x, out)
    elif isinstance(obj, LinMap):
        walk(obj.entries, out)
    elif obj is not None and not isinstance(obj, str):
        out.append(obj)
    return out


def assert_exact(obj):
    bad = [x for x in walk(obj, []) if type(x) not in SCALARS]
    assert not bad, bad[:5]


def tables(H, R):
    return (H.mult, H.unit, H.comult, H.counit, H.antipode_map,
            H.antipode_inverse_map, R.r, R.r_bar)


@pytest.mark.parametrize("name", sorted(snap.ALGEBRAS))
def test_example_tables_and_carriers_are_exact(name):
    H, R = snap.ALGEBRAS[name]()
    assert_exact(tables(H, R))
    certify(H)
    certify_quasitriangular(H, R)
    reg, unit = regular_module(H), unit_object(H)
    for P in (truncation_projector(reg, reg), truncation_projector(unit, reg),
              triple_projector(reg, unit, reg)):
        split = split_idempotent(P)
        assert_exact((split.inclusion, split.projection))
    assert_exact(solve_r_bar(H, R.r))


def test_integral_structure_constants_are_ints():
    H, R = snap.ALGEBRAS["z3"]()
    leaves = walk(tables(H, R), [])
    assert leaves and all(type(x) is int for x in leaves)


@pytest.mark.parametrize("name", sorted(snap.ALGEBRAS))
def test_every_snapshot_report_is_exact(name, monkeypatch):
    reports = []
    render_report = snap.render_report

    def capture(report):
        reports.append(report)
        return render_report(report)
    monkeypatch.setattr(snap, "render_report", capture)
    snap.snapshot(name)
    assert reports
    for report in reports:
        for check in report.checks:
            assert_exact(check.witness)


def test_coerce_keeps_integral_rationals_as_ints():
    q = Field()
    assert type(q.coerce(Fraction(3))) is int and q.coerce(Fraction(3)) == 3
    assert type(q.coerce(Fraction(1, 2))) is Fraction
    assert type(q.coerce(True)) is int
    with pytest.raises(TypeError):
        q.coerce(0.5)
    w = Field(5).omega()
    assert Field(5).coerce(w) is w


@pytest.mark.parametrize("x", [0, 1, -1, 7, -12, 10 ** 30])
def test_render_parse_roundtrip_of_ints(x):
    # an int and the equal Fraction render alike, as str(x) reads back
    text = render_scalar(x)
    assert text == str(x) == render_scalar(Fraction(x)) and int(text) == x
