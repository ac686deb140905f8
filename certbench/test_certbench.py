"""Tests of the certification benchmark itself.

Run from the root of a checkout with ``python3 -m pytest certbench -q``.
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import instances  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SIGNATURES = json.loads(run.SIGNATURES.read_text())


def smallest(family, seed=7):
    rng = random.Random(seed)
    return instances.workload_tables(family, rng)[0]


def traced(table, seed=7):
    tr = tracer.Tracer()
    H, R = table.build()
    with tr:
        outcome = pipeline.run_pipeline(H, R, random.Random(seed))
    return outcome, run.layer_metrics(tr)


@pytest.mark.parametrize("family", run.WORKLOADS)
def test_smallest_instance_certifies_at_every_stage(family):
    t = smallest(family)
    H, R = t.build()
    outcome = pipeline.run_pipeline(H, R, random.Random(0))
    assert list(outcome.reports) == list(pipeline.STAGES)
    assert run.deviation(outcome, t, SIGNATURES[family]) is None


@pytest.mark.parametrize("family", ["anyonic_cyclo", "weak_groupoid"])
def test_traced_run_matches_untraced_and_restores(family):
    t = smallest(family)
    originals = {name: getattr(sys.modules[mod], attr) if cls is None
                 else getattr(sys.modules[mod], cls).__dict__[attr]
                 for name, mod, attr, cls, _ in tracer.TARGETS}
    held = sys.modules["whakit.module_cat"].split_idempotent
    H, R = t.build()
    plain = pipeline.run_pipeline(H, R, random.Random(7))
    first, counts = traced(t)
    second, again = traced(t)
    assert first.signature() == plain.signature()
    assert second.signature() == plain.signature()
    exact = [k for k in counts
             if k.endswith((".calls", ".rows", ".distinct_ratio"))]
    assert {k: counts[k] for k in exact} == {k: again[k] for k in exact}
    # split_idempotent is reached through names bound in module_cat,
    # transmutation and yetter_drinfeld, never through whakit.linalg
    assert counts["linalg.split_idempotent.calls"] > 0
    assert counts["module_cat.truncated_tensor.calls"] > 0
    assert sys.modules["whakit.module_cat"].split_idempotent is held
    for name, mod, attr, cls, _ in tracer.TARGETS:
        now = (getattr(sys.modules[mod], attr) if cls is None
               else getattr(sys.modules[mod], cls).__dict__[attr])
        assert now is originals[name]
    if family == "anyonic_cyclo":
        assert counts["scalars.cyclo_mul.calls"] > 0


def test_scalar_counts_are_zero_on_hopf_zn():
    _, counts = traced(smallest("hopf_zn"))
    for name in run.COUNT_METRICS:
        if name.startswith("scalars."):
            assert counts[name] == 0, name
    assert counts["linalg.split_idempotent.calls"] > 0


@pytest.mark.parametrize("kind", instances.MUTANT_KINDS)
@pytest.mark.parametrize("family", run.WORKLOADS)
def test_every_mutant_kind_is_rejected(family, kind):
    t = smallest(family)
    m = instances.mutate(t, kind, random.Random(3))
    assert m != t
    H, R = m.build()
    outcome = pipeline.run_pipeline(H, R, random.Random(0))
    assert run.mutant_rejected(outcome)


def test_certifying_mutant_fails_the_command(monkeypatch, capsys):
    original = run.Run.run_mutants

    def unchanged_mutants(self, inst, pipe, tables):
        fake = types.SimpleNamespace(MUTANT_KINDS=inst.MUTANT_KINDS,
                                     mutate=lambda t, kind, rng: t)
        original(self, fake, pipe, tables)

    monkeypatch.setattr(run.Run, "run_mutants", unchanged_mutants)
    # main() re-imports whakit; put back the modules the other tests use
    for name in list(sys.modules):
        if name.startswith("whakit") or name in ("instances", "pipeline"):
            monkeypatch.setitem(sys.modules, name, sys.modules[name])
    code = run.main(["--workload", "weak_groupoid", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 3 * len(instances.SIZES["weak_groupoid"])
