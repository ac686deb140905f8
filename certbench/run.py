"""Certification benchmark for whakit.

Usage, from the root of a checkout:

    python3 certbench/run.py --workload hopf_zn --seed 1 --seconds 40 --trace 0

A workload is one family of algebras (see instances.py).  The seed picks
a basis relabelling of every instance and the rng of the coherence
check.  Each instance runs through the six-stage pipeline of
pipeline.py.  The load is closed-loop: one process, one thread, and
each instance starts after the previous one has finished.  A pass runs
every instance of the workload once, from freshly built objects; passes
repeat while the next one is expected to end within --seconds.

--trace 0 reports the end-to-end metrics, times in reference seconds
(see below):
  pipeline_s   sum over the workload's instances of the median, over the
               passes, of the instance's six-stage pipeline time
  setup_s      median over several repetitions of importing whakit and
               building every instance
  peak_rss_mb  peak resident memory of this process
and also prints the uncalibrated wall times of the pipeline and of each
stage.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, with trace.overhead_ratio = traced /
untraced pipeline_s.

Reference seconds: on a shared two-core virtual machine the speed of one
core drifts by up to a factor of two over tens of seconds, and the median
wall time of 40-second runs spread by 28% (interquartile range over the
median) across ten seeds.  So every timed piece of work is divided by the
time of a calibration loop run next to it, and multiplied by
REFERENCE_CALIBRATION_S: the result is the time the work would take on
the machine running at the speed where the loop takes that long.  The
loop (``calibrate``) is a fixed piece of Fraction and dict arithmetic
that calls no whakit code, so the ratio follows whakit's own speed.  In a
pass it runs before the first instance and after every instance, and an
instance is scaled by the mean of the two loops around it.

Before the passes, every mutant of mutate() runs on every instance.
A failure is a valid instance whose reports deviate from the recorded
signature, a mutant that is not rejected with a witness, or an
unexpected exception.  The last line of output is one JSON object; the
exit code is nonzero when any run failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SIGNATURES = HERE / "signatures.json"
TRACE_DIR = HERE / "traces"

WORKLOADS = ("hopf_zn", "anyonic_cyclo", "weak_groupoid")
SETUP_REPEATS = 15
CALIBRATION_STEPS = 10_000
REFERENCE_CALIBRATION_S = 0.05
_RELOADED = ("instances", "pipeline")

COUNT_METRICS = (
    "linalg.split_idempotent.calls",
    "linalg.from_span.calls",
    "linalg.compose.calls",
    "scalars.cyclo_mul.calls",
    "scalars.cyclo_add.calls",
    "scalars.cyclo_make.calls",
    "scalars.invert.calls",
    "weak_hopf.multiply.calls",
    "module_cat.truncated_tensor.calls",
    "module_cat.triple_projector.calls",
    "module_cat.act_pair.calls",
    "yetter_drinfeld.functor_G.calls",
    "yetter_drinfeld.functor_F.calls",
)
SELF_METRICS = (
    "linalg.split_idempotent.self_s",
    "linalg.from_span.self_s",
    "linalg.compose.self_s",
    "weak_hopf.multiply.self_s",
    "module_cat.truncated_tensor.self_s",
    "module_cat.triple_projector.self_s",
)
INCLUSIVE_METRICS = (
    "linalg.split_idempotent.s",
    "weak_hopf.certify.s",
    "quasitriangular.certify_quasitriangular.s",
    "transmutation.transmute.s",
    "transmutation.certify_braided_hopf.s",
    "module_cat.check_monoidal_coherence.s",
    "yetter_drinfeld.check_equivalence_roundtrip.s",
)
SCALAR_SPANS = ("scalars.cyclo_mul", "scalars.cyclo_add", "scalars.cyclo_make",
                "scalars.invert")


def load(family, seed):
    """Import whakit afresh and build every instance of the workload.

    Returns (seconds taken, instances module, pipeline module, tables).
    """
    for name in list(sys.modules):
        if name == "whakit" or name.startswith("whakit.") or name in _RELOADED:
            del sys.modules[name]
    t0 = time.perf_counter()
    instances = importlib.import_module("instances")
    pipeline = importlib.import_module("pipeline")
    tables = instances.workload_tables(family, random.Random(seed))
    for t in tables:
        t.build()
    return time.perf_counter() - t0, instances, pipeline, tables


def calibrate():
    """Seconds taken by a fixed loop of Fraction and dict arithmetic,
    which measures the machine's current speed."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_STEPS):
        f = Fraction(i % 7 + 1, i % 5 + 1)
        acc[i % 97] = acc.get(i % 97, 0) + f * f
    return time.perf_counter() - t0


def deviation(outcome, table, signature):
    """None when a valid instance's reports match, else a description."""
    fail = outcome.first_failure()
    if fail is not None:
        stage, check = fail
        return f"{stage}: {check.name} failed with witness {check.witness!r}"
    names = {stage: [c[0] for c in checks]
             for stage, checks in outcome.signature().items()}
    if names != signature:
        return f"check names {names} differ from the recorded signature"
    if outcome.carrier_dim != table.carrier_dim:
        return (f"carrier dimension {outcome.carrier_dim}, "
                f"expected {table.carrier_dim}")
    return None


def mutant_rejected(outcome):
    fail = outcome.first_failure()
    return fail is not None and fail[1].witness is not None


class Run:
    """State of one benchmark run: counts, timings and failures."""

    def __init__(self, family, seed):
        self.family = family
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.untraced = []
        self.traced = []
        self.layers = []
        self.tracer = None

    def fail(self, what, detail):
        self.failed += 1
        print(f"FAIL {what}: {detail}", file=sys.stderr)

    def run_mutants(self, instances, pipeline, tables):
        rng = random.Random(f"{self.seed}:mutants")
        for t in tables:
            for kind in instances.MUTANT_KINDS:
                m = instances.mutate(t, kind, rng)
                self.attempted += 1
                try:
                    H, R = m.build()
                    outcome = pipeline.run_pipeline(H, R, random.Random(0))
                except Exception:
                    self.fail(m.name, traceback.format_exc())
                    continue
                if not mutant_rejected(outcome):
                    self.fail(m.name, "mutant was not rejected with a witness")

    def run_pass(self, pipeline, tables, signature, tracer=None):
        """Run every instance once.

        Returns one (stage seconds, calibration seconds) pair per instance.
        """
        seconds = []
        cal = [calibrate()]
        for i, t in enumerate(tables):
            H, R = t.build()
            rng = random.Random(f"{self.seed}:{i}")
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.instance = i
            try:
                outcome = pipeline.run_pipeline(H, R, rng)
            except Exception:
                self.fail(t.name, traceback.format_exc())
                outcome = pipeline.Outcome()
            else:
                bad = deviation(outcome, t, signature)
                if bad is not None:
                    self.fail(t.name, bad)
            cal.append(calibrate())
            seconds.append((outcome.seconds, (cal[-2] + cal[-1]) / 2))
        return seconds

    def traced_pass(self, pipeline, tables, signature, tracer_mod):
        tracer = tracer_mod.Tracer()
        with tracer:
            times = self.run_pass(pipeline, tables, signature, tracer)
        if self.tracer is None:
            self.tracer = tracer
        self.layers.append(layer_metrics(tracer))
        return times

    def measure(self, seconds, trace):
        signature = json.loads(SIGNATURES.read_text())[self.family]
        setups = []
        for _ in range(SETUP_REPEATS):
            took, instances, pipeline, tables = load(self.family, self.seed)
            setups.append(took * REFERENCE_CALIBRATION_S / calibrate())
        self.setup_s = statistics.median(setups)
        self.tables = tables
        self.run_mutants(instances, pipeline, tables)
        tracer_mod = importlib.import_module("tracer") if trace else None
        # Passes repeat while the next one, judged by the last, still ends
        # within the budget; the first always runs.
        clock = time.perf_counter
        start = clock()
        while True:
            t0 = clock()
            self.untraced.append(self.run_pass(pipeline, tables, signature))
            if trace:
                self.traced.append(self.traced_pass(pipeline, tables,
                                                    signature, tracer_mod))
            if 2 * clock() - t0 - start > seconds:
                break


def sum_of_medians(passes, value):
    """Sum over instances of the median over the passes of
    value(stage seconds, calibration seconds)."""
    return sum(statistics.median(value(*s) for s in col) for col in zip(*passes))


def pipeline_s(passes):
    """Pipeline time of the workload in reference seconds."""
    return sum_of_medians(passes, lambda sec, cal: sum(sec.values())
                          * REFERENCE_CALIBRATION_S / cal)


def layer_metrics(tracer):
    stats = tracer.stats
    out = {}
    for name in COUNT_METRICS:
        out[name] = stats[name.rsplit(".", 1)[0]][0]
    for name in SELF_METRICS:
        out[name] = stats[name.rsplit(".", 1)[0]][2]
    for name in INCLUSIVE_METRICS:
        out[name] = stats[name.rsplit(".", 1)[0]][1]
    out["scalars.cyclo.self_s"] = sum(stats[n][2] for n in SCALAR_SPANS)
    split_calls = stats["linalg.split_idempotent"][0]
    out["linalg.split_idempotent.rows"] = tracer.split_rows
    out["linalg.split_idempotent.distinct_ratio"] = (
        len(tracer.split_inputs) / split_calls if split_calls else 0.0)
    return out


def unit_of(name):
    if name.endswith((".calls", ".rows")):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def report(run, trace):
    """The metrics of a finished run, as {name: {"value", "unit"}}."""
    if not trace:
        metrics = {
            "pipeline_s": (pipeline_s(run.untraced), "s"),
            "setup_s": (run.setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MiB"),
        }
    else:
        first = run.layers[0]
        metrics = {}
        for name, value in first.items():
            if unit_of(name) == "s":
                value = statistics.median(m[name] for m in run.layers)
            metrics[name] = (value, unit_of(name))
        metrics["trace.overhead_ratio"] = (
            pipeline_s(run.traced) / pipeline_s(run.untraced),
            "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whakit" / "__init__.py").is_file():
        print(f"whakit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    run = Run(args.workload, args.seed)
    run.measure(args.seconds, bool(args.trace))
    metrics = report(run, bool(args.trace))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.untraced)} untraced and {len(run.traced)} traced passes "
          f"over {len(run.tables)} instances")
    if not args.trace:
        raw = sum_of_medians(run.untraced, lambda sec, cal: sum(sec.values()))
        print(f"  wall time, uncalibrated: {raw:.6g} s")
        for stage in dict.fromkeys(k for p in run.untraced
                                   for sec, _ in p for k in sec):
            took = sum_of_medians(run.untraced,
                                  lambda sec, cal: sec.get(stage, 0.0))
            print(f"    stage {stage}: {took:.6g} s")
        calib = statistics.median(c for p in run.untraced for _, c in p)
        print(f"  calibration loop: {calib:.6g} s (median)")
    else:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write_spans(path)
        print(f"  spans of the first traced pass: {path}")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.6g} fraction")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
