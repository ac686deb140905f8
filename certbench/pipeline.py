"""The six-stage certification pipeline, as a user of whakit runs it.

Stage functions are looked up on their modules at call time, so that the
tracer's rebinding of module attributes intercepts them.
"""

from __future__ import annotations

import random
import time

from whakit import module_cat, quasitriangular, transmutation, weak_hopf
from whakit import yetter_drinfeld

STAGES = (
    "weak_hopf.certify",
    "quasitriangular.certify_quasitriangular",
    "transmutation.transmute",
    "transmutation.certify_braided_hopf",
    "module_cat.check_monoidal_coherence",
    "yetter_drinfeld.check_equivalence_roundtrip",
)


class Outcome:
    """Reports and per-stage wall times of one pipeline run.

    ``reports`` maps each stage that ran to its VerificationReport
    (transmute, which returns an algebra, maps to None).  The pipeline
    stops after the first stage whose report fails.
    """

    def __init__(self):
        self.reports = {}
        self.seconds = {}
        self.carrier_dim = None

    def first_failure(self):
        """(stage, CheckResult) of the first failing check, or None."""
        for stage, rep in self.reports.items():
            if rep is not None and not rep.passed:
                return stage, rep.first_failure()
        return None

    def signature(self):
        """Ordered check names and pass flags of every stage that ran."""
        return {stage: [[c.name, c.passed] for c in rep.checks]
                for stage, rep in self.reports.items() if rep is not None}


def run_pipeline(H, R, rng: random.Random) -> Outcome:
    """Certify H and R, transmute, and check the braided category and the
    Yetter-Drinfeld equivalence, timing each stage."""
    out = Outcome()
    clock = time.perf_counter

    def stage(name, fn, *args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        out.seconds[name] = clock() - t0
        return result

    rep = stage(STAGES[0], weak_hopf.certify, H)
    out.reports[STAGES[0]] = rep
    if not rep.passed:
        return out
    rep = stage(STAGES[1], quasitriangular.certify_quasitriangular, H, R)
    out.reports[STAGES[1]] = rep
    if not rep.passed:
        return out
    B = stage(STAGES[2], transmutation.transmute, H, R)
    out.reports[STAGES[2]] = None
    out.carrier_dim = B.dim
    rep = stage(STAGES[3], transmutation.certify_braided_hopf, B)
    out.reports[STAGES[3]] = rep
    if not rep.passed:
        return out
    modules = [module_cat.regular_module(H), module_cat.unit_object(H)]
    rep = stage(STAGES[4], module_cat.check_monoidal_coherence, H, R,
                modules, rng)
    out.reports[STAGES[4]] = rep
    if not rep.passed:
        return out
    rep = stage(STAGES[5], yetter_drinfeld.check_equivalence_roundtrip, H, R,
                braided=B)
    out.reports[STAGES[5]] = rep
    return out
