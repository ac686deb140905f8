"""Every public check's report, frozen as a JSON fixture.

The fixture records, for four algebras, the subject, check names and
order, pass/fail, severity and witness of every report the package can
produce, plus the values of solve_r_bar, is_hopf, is_regular and
is_triangular.  Each algebra also runs one mutant per structure table
(one doubled entry of mult, of comult and of R) through the six-stage
pipeline, up to the first failing stage, and the later-stage checks on
inputs with one doubled entry (a module action, a coaction, a table of
the transmuted algebra, or R), so that their failure witnesses are
recorded too.  Any change to how a check is computed that alters a
report, a witness included, fails this test.  Identities that follow
from the certified axioms and gate nothing (the derived R-matrix
identities and the half-braiding of the transmuted coproduct) produce no
report; test_quasitriangular.py and test_transmutation.py assert them.

Regenerate the fixture, after a deliberate report change only, with

    PYTHONPATH=src python tests/test_report_snapshot.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import LinMap, unflatten
from whakit.module_cat import (HModule, check_module, check_monoidal_coherence,
                               regular_module, unit_object)
from whakit.quasitriangular import (RMatrix, certify_quasitriangular,
                                    is_triangular, solve_r_bar)
from whakit.scalars import Cyclo, render_scalar
from whakit.transmutation import (BraidedHopfAlgebra, certify_braided_hopf,
                                  check_braided_hopf, transmute)
from whakit.weak_hopf import WeakHopfAlgebra, certify, is_hopf, is_regular
from whakit.yetter_drinfeld import (Comodule, check_comodule_braiding,
                                    check_equivalence_roundtrip, check_rh_comodule,
                                    check_yd, induced_yd, regular_rh_comodule,
                                    trivial_comodule)

FIXTURE = Path(__file__).parent / "fixtures" / "report_snapshot.json"


ALGEBRAS = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


def render(obj):
    """JSON-ready form: scalars through render_scalar, dict keys by repr."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, Fraction, Cyclo)):
        return render_scalar(obj)
    if isinstance(obj, dict):
        return {repr(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [render(x) for x in obj]
    raise TypeError(f"cannot render {obj!r}")


def render_report(report):
    return {"subject": report.subject,
            "checks": [{"name": c.name, "passed": c.passed,
                        "severity": c.severity, "witness": render(c.witness)}
                       for c in report.checks]}


def _tables(H, R):
    """The constructor arguments that rebuild H and R."""
    def inverse_of(linmap):
        return {(i, j): c for (j, i), c in linmap.entries.items()}
    return {
        "mult": {(i, j, k): c for (i, j), prod in H.mult.items()
                 for k, c in prod.items()},
        "unit": dict(H.unit),
        "comult": {(i, j, k): c for i, cop in H.comult.items()
                   for (j, k), c in cop.items()},
        "counit": dict(H.counit),
        "antipode": inverse_of(H.antipode_map),
        "antipode_inverse": inverse_of(H.antipode_inverse_map),
        "r": dict(R.r),
        "r_bar": dict(R.r_bar),
    }


def _mutant(H, R, table):
    """H and R rebuilt with the middle entry (in key order) of one table doubled."""
    t = _tables(H, R)
    t[table] = _doubled(t[table])
    key = sorted(t[table])[len(t[table]) // 2]
    r, r_bar = t.pop("r"), t.pop("r_bar")
    H2 = WeakHopfAlgebra(name=f"{H.name}~{table}{key}", field=H.field,
                         labels=H.labels, **t)
    return H2, RMatrix(H2, r, r_bar)


def _doubled(table):
    """A copy of a dict table with its middle entry (in key order) doubled."""
    out = dict(table)
    key = sorted(out)[len(out) // 2]
    out[key] = 2 * out[key]
    return out


def _doubled_nested(table):
    """The same for a table of vectors: one entry of its middle vector."""
    out = dict(table)
    key = sorted(out)[len(out) // 2]
    out[key] = _doubled(out[key])
    return out


def attempt(fn, *args):
    """The rendered report of fn(*args), or the name of what it raised."""
    try:
        return render_report(fn(*args))
    except Exception as exc:  # a perturbed input may break an invariant
        return {"raised": type(exc).__name__}


def perturbed(H, R, B):
    """Checks run on inputs with one doubled entry, so that witnesses of the
    later stages are recorded too."""
    out = {}
    reg = regular_module(H)
    action = {(i, r, c): v for i in range(H.dim)
              for (r, c), v in reg.rho(i).entries.items()}
    out["check_module"] = attempt(check_module,
                                  HModule(H, H.space, _doubled(action)))
    Y = induced_yd(reg, R)
    N = regular_rh_comodule(B)
    for name, check, C in (("check_yd", check_yd, Y),
                           ("check_rh_comodule", check_rh_comodule, N)):
        # the middle flat entry of the coaction, doubled, as a table
        bent = LinMap(C.coaction.domain, C.coaction.codomain,
                      _doubled(C.coaction.entries))
        out[name] = attempt(check, Comodule(C.over, C.module, {
            j: unflatten(bent.column(j), (C.over.dim, C.dim))
            for j in range(C.dim)}))
    parts = (B.carrier, B.module, B.square, B.unit_module)
    maps = (B.counit_bar, B.antipode_bar, B.unit_bar)
    out["check_braided_hopf_mult"] = attempt(check_braided_hopf,
        BraidedHopfAlgebra(H, R, *parts, _doubled_nested(B.mult), B.comult,
                           *maps))
    out["check_braided_hopf_comult"] = attempt(check_braided_hopf,
        BraidedHopfAlgebra(H, R, *parts, B.mult, _doubled_nested(B.comult),
                           *maps))
    bad = RMatrix(H, _doubled(R.r), R.r_bar)
    bad.certified = True
    out["check_monoidal_coherence"] = attempt(
        check_monoidal_coherence, H, bad, [reg, unit_object(H)],
        random.Random(0))
    Bb = BraidedHopfAlgebra(H, bad, *parts, B.mult, B.comult, *maps)
    Bb.certified = True
    out["check_braided_hopf_r"] = attempt(check_braided_hopf, Bb)
    regc = regular_rh_comodule(Bb)
    out["check_comodule_braiding"] = attempt(
        check_comodule_braiding, regc, regc, trivial_comodule(Bb, reg))
    out["check_equivalence_roundtrip"] = attempt(
        check_equivalence_roundtrip, H, bad, Bb)
    return out


def run_pipeline(H, R):
    """The six stages in order, stopping after the first failing report."""
    out = []
    try:
        rep = certify(H)
        out.append(render_report(rep))
        if not rep.passed:
            return out
        rep = certify_quasitriangular(H, R)
        out.append(render_report(rep))
        if not rep.passed:
            return out
        B = transmute(H, R)
        out.append({"transmute_dim": B.dim})
        rep = certify_braided_hopf(B)
        out.append(render_report(rep))
        if not rep.passed:
            return out
        modules = [regular_module(H), unit_object(H)]
        rep = check_monoidal_coherence(H, R, modules, random.Random(0))
        out.append(render_report(rep))
        if not rep.passed:
            return out
        out.append(render_report(check_equivalence_roundtrip(H, R, braided=B)))
    except Exception as exc:  # a mutant may break an invariant mid-construction
        out.append({"raised": type(exc).__name__})
    return out


def snapshot(name):
    H, R = ALGEBRAS[name]()
    out = {"pipeline": run_pipeline(H, R)}
    B = transmute(H, R)
    certify_braided_hopf(B)
    reg, unit = regular_module(H), unit_object(H)
    out["check_module"] = [render_report(check_module(M))
                           for M in (reg, unit, B.module)]
    out["check_yd"] = [render_report(check_yd(induced_yd(M, R)))
                       for M in (reg, unit, B.module)]
    comods = [regular_rh_comodule(B), trivial_comodule(B, reg),
              trivial_comodule(B, unit)]
    out["check_rh_comodule"] = [render_report(check_rh_comodule(N))
                                for N in comods]
    regc, treg, tunit = comods
    out["check_comodule_braiding"] = [
        render_report(check_comodule_braiding(regc, regc, regc)),
        render_report(check_comodule_braiding(treg, regc, tunit)),
    ]
    out["values"] = {
        "solve_r_bar": render(solve_r_bar(H, R.r)),
        "is_hopf": is_hopf(H),
        "is_regular": is_regular(H),
        "is_triangular": is_triangular(R),
    }
    out["perturbed"] = perturbed(H, R, B)
    H0, R0 = ALGEBRAS[name]()
    out["mutants"] = {table: run_pipeline(*_mutant(H0, R0, table))
                      for table in ("mult", "comult", "r")}
    return out


def dump(obj):
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_reports_match_snapshot(name, fixture):
    assert dump(snapshot(name)) == dump(fixture[name])


def test_fixture_is_canonical(fixture):
    assert FIXTURE.read_text() == dump(fixture)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(dump({name: snapshot(name) for name in ALGEBRAS}))
