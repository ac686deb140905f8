"""Outside-in tracing of whakit: wrap public functions and methods from here.

The tracer changes no line of whakit.  ``install`` replaces each traced
function with a timing wrapper wherever whakit holds it: a module-level
function is rebound in every whakit module whose namespace holds the same
function object (``module_cat`` imports ``split_idempotent`` by name, so
patching ``whakit.linalg`` alone would miss its calls), and a method is
rebound on its class.  ``uninstall`` puts every original back.

Each wrapped call is a span.  A span's self time is its duration minus
the time its child spans cover.  Spans of layer functions are kept in
memory as (name, start, end, parent, instance) and written out by
``write_spans``.  The hot leaves (the Cyclo operations, run about a
million times per instance, ``WeakHopfAlgebra.multiply`` and
``act_pair``) are counted and timed into the per-name totals but not
kept as individual spans.

The scalars layer is the cyclotomic arithmetic of ``Cyclo``, so
``scalars.invert`` counts ``Cyclo.inverse``; the rational pivots that
elimination inverts are Fraction work inside ``linalg``.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute, class or None, keep individual spans)
TARGETS = (
    ("linalg.split_idempotent", "whakit.linalg", "split_idempotent", None, True),
    ("linalg.from_span", "whakit.linalg", "from_span", "Subspace", True),
    ("linalg.compose", "whakit.linalg", "compose", "LinMap", True),
    ("scalars.cyclo_mul", "whakit.scalars", "__mul__", "Cyclo", False),
    ("scalars.cyclo_mul", "whakit.scalars", "__rmul__", "Cyclo", False),
    ("scalars.cyclo_add", "whakit.scalars", "__add__", "Cyclo", False),
    ("scalars.cyclo_add", "whakit.scalars", "__radd__", "Cyclo", False),
    ("scalars.cyclo_make", "whakit.scalars", "make", "Cyclo", False),
    ("scalars.invert", "whakit.scalars", "inverse", "Cyclo", False),
    ("weak_hopf.certify", "whakit.weak_hopf", "certify", None, True),
    ("weak_hopf.multiply", "whakit.weak_hopf", "multiply", "WeakHopfAlgebra",
     False),
    ("quasitriangular.certify_quasitriangular", "whakit.quasitriangular",
     "certify_quasitriangular", None, True),
    ("transmutation.transmute", "whakit.transmutation", "transmute", None, True),
    ("transmutation.certify_braided_hopf", "whakit.transmutation",
     "certify_braided_hopf", None, True),
    ("module_cat.check_monoidal_coherence", "whakit.module_cat",
     "check_monoidal_coherence", None, True),
    ("module_cat.truncated_tensor", "whakit.module_cat", "__init__",
     "TruncatedTensor", True),
    ("module_cat.triple_projector", "whakit.module_cat", "triple_projector",
     None, True),
    ("module_cat.act_pair", "whakit.module_cat", "act_pair", None, False),
    ("yetter_drinfeld.check_equivalence_roundtrip", "whakit.yetter_drinfeld",
     "check_equivalence_roundtrip", None, True),
    ("yetter_drinfeld.functor_G", "whakit.yetter_drinfeld", "functor_G", None, True),
    ("yetter_drinfeld.functor_F", "whakit.yetter_drinfeld", "functor_F", None, True),
)

SPLIT = "linalg.split_idempotent"


class Tracer:
    """Per-name call counts, inclusive and self time, and kept spans.

    ``stats[name]`` is [calls, inclusive seconds, self seconds].  For
    ``split_idempotent`` it also counts rows (the sum of P.domain.dim)
    and distinct inputs.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}
        self.spans = []
        self.instance = None
        self.split_rows = 0
        self.split_inputs = set()
        self._stack = []
        self._restore = []

    def _wrap(self, orig, name, keep):
        stack = self._stack
        spans = self.spans
        st = self.stats[name]
        clock = time.perf_counter
        tracer = self

        if not keep:
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
            return wrapper

        def wrapper(*args, **kwargs):
            if name == SPLIT:
                b0 = clock()
                P = args[0]
                tracer.split_rows += P.domain.dim
                tracer.split_inputs.add(
                    (P.domain.dim, frozenset(P.entries.items())))
                if stack:
                    stack[-1][0] += clock() - b0
            idx = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                spans[idx] = (name, t0, t1, parent, tracer.instance)
        return wrapper

    def install(self):
        """Wrap every target; returns self."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "whakit" or n.startswith("whakit."))]
        for name, modname, attr, clsname, keep in TARGETS:
            module = sys.modules[modname]
            if clsname is None:
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, name, keep)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapper)
            else:
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(self._wrap(raw.__func__, name, keep))
                else:
                    wrapper = self._wrap(raw, name, keep)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapper)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path):
        """Write the kept spans as JSON lines, times relative to the first."""
        base = min((s[1] for s in self.spans if s), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, inst = s
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "instance": inst}))
                fh.write("\n")
