"""Weak Hopf algebras presented by structure constants, with exact axiom checks.

An algebra is built from sparse multiplication and comultiplication
constants, a unit vector, a counit covector, and an antipode matrix.
check_weak_hopf compiles every axiom into tensor contractions over those
constants and reports each identity separately, with a witness on
failure: VerificationReport.record takes a name and None (pass) or a
(key, lhs, rhs) witness.  Only add sets a severity, for a flag such as
"triangular"; an "info" entry never gates.  Constructors return
unverified values, certified_by marks them, require_certified gates
their use, and WeakHopfAlgebra._cached builds derived values once.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .linalg import (DimensionMismatch, LinMap, Subspace, VectorSpace, act,
                     check_keys, image, on_leg, outer, permute)


class NotCertified(RuntimeError):
    """A construction received an algebra that has not passed its checks."""


class Certifiable:
    """State that certified_by sets and require_certified gates on."""

    certified = False

    def require_certified(self):
        if not self.certified:
            raise NotCertified(self._uncertified.format(self))

    @property
    def _flag(self):
        return "certified" if self.certified else "unverified"


def certified_by(obj: Certifiable, report):
    """Mark obj certified exactly when report passed; return the report."""
    obj.certified = report.passed
    return report


class CheckResult:
    __slots__ = ("name", "passed", "witness", "severity")

    def __init__(self, name, passed, witness=None, severity="normal"):
        self.name = name
        self.passed = bool(passed)
        self.witness = witness if not passed else None
        self.severity = severity

    def __repr__(self):
        state = "ok" if self.passed else "FAIL"
        return f"<{self.name}: {state}>"


class VerificationReport:
    """Ordered list of named pass/fail results with failure witnesses."""

    def __init__(self, subject=""):
        self.subject = subject
        self.checks = []

    def add(self, name, passed, witness=None, severity="normal"):
        self.checks.append(CheckResult(name, passed, witness, severity))
        return self

    def record(self, name, mismatch):
        """mismatch is None (pass) or a (key, lhs, rhs) witness triple."""
        self.add(name, mismatch is None, mismatch)
        return self

    @property
    def passed(self):
        """True when every required check passed; info entries never gate."""
        return all(c.passed for c in self.checks if c.severity != "info")

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed and c.severity != "info"]

    def first_failure(self):
        return next(iter(self.failures), None)

    def find(self, name):
        return next((c for c in self.checks if c.name == name), None)

    def names(self):
        return [c.name for c in self.checks]

    def __repr__(self):
        n_fail = len(self.failures)
        return (f"<VerificationReport {self.subject!r}: {len(self.checks)} checks, "
                f"{n_fail} failed>")


def first_mismatch(lhs, rhs):
    """None if two dicts of vectors are equal, else (key, lhs, rhs) at the
    least key where they differ."""
    for key in sorted(set(lhs) | set(rhs)) if lhs != rhs else ():
        l = lhs.get(key, {})
        r = rhs.get(key, {})
        if l != r:
            return (key, l, r)
    return None


def first_unequal(keys, sides):
    """None if sides(*key) returns two equal values for every key tuple,
    else the witness (key, lhs, rhs) of the first key where they differ."""
    for key in keys:
        lhs, rhs = sides(*key)
        if lhs != rhs:
            return (key, lhs, rhs)
    return None


def first_witness(cases):
    """The first witness among lazy (key, witness-or-None) pairs, its key
    prefixed to the witness key; None when every witness is None.  Cases
    after the first witness are never computed."""
    for key, w in cases:
        if w is not None:
            return (key + w[0],) + w[1:]
    return None


def coassociative_mismatch(table: dict, comult: dict, dim: int):
    """The witness of (Delta (x) id) rho against (id (x) rho) rho for a
    coaction table rho = {j: {(a, m): c}}, j < dim, a missing column read
    as {}, over the coproduct comult; a coalgebra passes table = comult."""
    return first_unequal(product(range(dim)), lambda j: (
        on_leg(table.get(j, {}), 0, comult),
        on_leg(table.get(j, {}), 1, table)))


def scalar_table_mismatch(lhs, rhs):
    """first_mismatch on dicts of scalars, each nonzero scalar v read as
    the vector {0: v}."""
    if lhs == rhs:
        return None
    return first_mismatch(*({k: {0: v} for k, v in t.items() if v}
                            for t in (lhs, rhs)))


class WeakHopfAlgebra(Certifiable):
    """A finite dimensional weak Hopf algebra given by structure constants.

    mult maps (i, j, k) to the coefficient of e_k in e_i e_j; comult maps
    (i, j, k) to the coefficient of e_j tensor e_k in the coproduct of
    e_i; antipode maps (i, j) to the coefficient of e_j in S(e_i).
    labels names the basis vectors, distinct, one per dimension.
    """

    _uncertified = "algebra {0.name!r} has not been certified"

    def __init__(self, name, field, labels, mult, unit, comult, counit,
                 antipode, antipode_inverse=None):
        self.name = name
        self.field = field
        self.labels = tuple(labels)
        repeated = [x for x, n in Counter(self.labels).items() if n > 1]
        if repeated:
            raise DimensionMismatch(f"repeated basis labels: {repeated!r}")
        self.space = VectorSpace(len(self.labels))
        for table_name, table, legs in (
                ("mult", mult, 3), ("unit", unit, 1), ("comult", comult, 3),
                ("counit", counit, 1), ("antipode", antipode, 2),
                ("antipode_inverse", antipode_inverse or {}, 2)):
            check_keys(table, table_name, (self.dim,) * legs)
        co = field.coerce

        self.mult = {}
        for (i, j, k), c in mult.items():
            c = co(c)
            if c != 0:
                self.mult.setdefault((i, j), {})[k] = c
        self.unit = {i: co(c) for i, c in unit.items() if co(c) != 0}
        self.comult = {}
        for (i, j, k), c in comult.items():
            c = co(c)
            if c != 0:
                self.comult.setdefault(i, {})[(j, k)] = c
        self.counit = {i: co(c) for i, c in counit.items() if co(c) != 0}
        # S(e_i) = sum c e_j is column i of the map; LinMap drops zeros
        self.antipode_map = LinMap(self.space, self.space, {
            (j, i): co(c) for (i, j), c in antipode.items()})
        self.antipode_inverse_map = None if antipode_inverse is None else LinMap(
            self.space, self.space,
            {(j, i): co(c) for (i, j), c in antipode_inverse.items()})
        self._cache = {}

    @property
    def dim(self):
        return self.space.dim

    def basis(self, i):
        return {i: 1}

    # structure-constant evaluation

    def multiply(self, a, b):
        return self.fold(outer({(i,): x for i, x in a.items()},
                               {(j,): y for j, y in b.items()}))

    def comultiply(self, a):
        """Coproduct as a dict keyed by index pairs."""
        return on_leg({(i,): x for i, x in a.items()}, 0, self.comult)

    def antipode(self, a):
        return self.antipode_map(a)

    def fold(self, t):
        """The product of all legs of a tuple-keyed tensor, left to right,
        as a vector."""
        while t and len(next(iter(t))) > 1:
            t = on_leg(t, slice(0, 2), self.mult)
        return {k: c for (k,), c in t.items()}

    # cached derived data

    def _cached(self, key, build):
        """The derived value under key, built by build() on first request."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def delta_one(self):
        """Coproduct of the unit, as a pair-keyed dict."""
        return self._cached("delta_one", lambda: self.comultiply(self.unit))

    def delta2_one(self):
        """Twice-iterated coproduct of the unit, keyed by index triples."""
        return self._cached("delta2_one", lambda: on_leg(
            self.delta_one(), 0, self.comult))

    def comult2(self, i):
        """Index-triple expansion of the twice-iterated coproduct of e_i."""
        return on_leg(self.comult.get(i, {}), 0, self.comult)

    def epsilon_t(self, h):
        return self.epsilon_t_map()(h)

    def epsilon_t_map(self):
        """The target counital map sending h to eps(1_1 h) 1_2."""
        return self._cached("eps_t", lambda: self._counital_map(True))

    def epsilon_s_map(self):
        """The source counital map sending h to 1_1 eps(h 1_2)."""
        return self._cached("eps_s", lambda: self._counital_map(False))

    def _counital_map(self, target):
        # eps(1_1 e_j) 1_2 at (1_2, j), or 1_1 eps(e_j 1_2) at (1_1, j)
        rows, cols = _counit_form(self)
        d1 = self.delta_one()
        return LinMap(self.space, self.space, on_leg(
            {(b, a): v for (a, b), v in d1.items()}, 1, rows) if target
            else on_leg(d1, 1, cols))

    def target_space(self):
        return self._cached("target_space",
                            lambda: image(self.epsilon_t_map()))

    def source_space(self):
        return self._cached("source_space",
                            lambda: image(self.epsilon_s_map()))

    def __repr__(self):
        return f"WeakHopfAlgebra({self.name!r}, dim={self.dim}, {self._flag})"


def pair_mult(H, lhs, rhs):
    """Product of two pair-keyed tensors in H tensor H."""
    return act((H.mult, H.mult), lhs, rhs)


def _check_associativity(H, report):
    # every basis triple, carrying itself as a label in a fourth leg
    triples = {key + (key,): 1 for key in product(range(H.dim), repeat=3)}

    def by_label(t):
        out = {}
        for (k, label), c in on_leg(t, slice(0, 2), H.mult).items():
            out.setdefault(label, {})[k] = c
        return out
    left = by_label(on_leg(triples, slice(0, 2), H.mult))
    right = by_label(on_leg(triples, slice(1, 3), H.mult))
    report.record("algebra_associative", first_mismatch(left, right))


def _check_unit(H, report):
    def sides(i):
        e = {i: 1}
        li = H.multiply(H.unit, e)
        return (li if li != e else H.multiply(e, H.unit)), e
    report.record("algebra_unit", first_unequal(product(range(H.dim)), sides))


def _check_counit_axiom(H, report):
    eps = {i: {(): c} for i, c in H.counit.items()}

    def sides(i):
        e = {i: 1}
        lhs = H.fold(on_leg(H.comult.get(i, {}), 0, eps))
        rhs = H.fold(on_leg(H.comult.get(i, {}), 1, eps))
        return (lhs if lhs != e else rhs), e
    report.record("coalgebra_counit", first_unequal(product(range(H.dim)), sides))


def _check_comult_multiplicative(H, report):
    report.record("comult_multiplicative", first_unequal(
        product(range(H.dim), repeat=2), lambda i, j: (
            H.comultiply(H.mult.get((i, j), {})),
            pair_mult(H, H.comult.get(i, {}), H.comult.get(j, {})))))


def _check_unit_comult(H, report):
    d1 = H.delta_one()
    d2 = H.delta2_one()
    # (Delta(1) (x) 1)(1 (x) Delta(1)), then (1 (x) Delta(1))(Delta(1) (x) 1)
    pairs = outer(d1, d1)
    lhs1 = on_leg(pairs, slice(1, 3), H.mult)
    mism = None if d2 == lhs1 else ((), d2, lhs1)
    if mism is None:
        lhs2 = on_leg(permute(pairs, (0, 2, 3, 1)), slice(0, 2), H.mult)
        mism = None if d2 == lhs2 else ((), d2, lhs2)
    report.record("unit_comult_compatible", mism)


def _mult_tensor(H):
    """The product table as the three-leg tensor {(i, j, k): c}."""
    return {(i, j, k): c for (i, j), p in H.mult.items() for k, c in p.items()}


def _counit_form(H):
    """The form eps(e_i e_j) as the tables {i: {j: c}} and {j: {i: c}},
    inner keys ascending, the order the counital maps' entries take."""
    def build():
        eps = {k: {(): c} for k, c in H.counit.items()}
        rows, cols = {}, {}
        for (i, j), c in sorted(on_leg(_mult_tensor(H), 2, eps).items()):
            rows.setdefault(i, {})[j] = c
            cols.setdefault(j, {})[i] = c
        return rows, cols
    return H._cached("counit_form", build)


def _check_weak_counit(H, report):
    # eps(h k l) against eps(h k_1) eps(k_2 l), then eps(h k_2) eps(k_1 l)
    rows, cols = _counit_form(H)
    lhs = on_leg(_mult_tensor(H), 2, rows)
    co = {(a, k, b): c for k, cop in H.comult.items() for (a, b), c in cop.items()}
    for name, t in (("counit_weak_mult", co),
                    ("counit_weak_mult_op", permute(co, (2, 1, 0)))):
        rhs = on_leg(on_leg(t, 0, cols), 2, rows)
        report.record(name, scalar_table_mismatch(lhs, rhs))


def _check_antipode_axioms(H, report):
    S = H.antipode_map.columns()
    basis = list(product(range(H.dim)))
    report.record("antipode_left_cancel", first_unequal(basis, lambda i: (
        H.fold(on_leg(H.comult.get(i, {}), 1, S)),
        H.epsilon_t_map().column(i))))
    report.record("antipode_right_cancel", first_unequal(basis, lambda i: (
        H.fold(on_leg(H.comult.get(i, {}), 0, S)),
        H.epsilon_s_map().column(i))))
    report.record("antipode_sandwich", first_unequal(basis, lambda i: (
        H.fold(on_leg(on_leg(H.comult2(i), 0, S), 2, S)),
        H.antipode_map.column(i))))


def _check_delta2_folds(H, report):
    d1 = H.delta_one()
    S = H.antipode_map.columns()

    def fold(t, leg):
        return on_leg(t, slice(leg, leg + 2), H.mult)
    basis = list(product(range(H.dim)))
    # each identity folds two legs of the twice-iterated coproduct through
    # the antipode, against the split unit with e_i inserted beside a leg
    report.record("delta2_fold_right", first_unequal(basis, lambda i: (
        fold(on_leg(H.comult2(i), 2, S), 1),
        fold({(x, i, y): v for (x, y), v in d1.items()}, 0))))
    report.record("delta2_fold_left", first_unequal(basis, lambda i: (
        fold(on_leg(H.comult2(i), 0, S), 0),
        fold({(x, i, y): v for (x, y), v in d1.items()}, 1))))
    report.record("delta2_fold_inner_right", first_unequal(basis, lambda i: (
        fold(on_leg(H.comult2(i), 1, S), 1),
        on_leg(fold({(i, x, y): v for (x, y), v in d1.items()}, 0), 1, S))))
    report.record("delta2_fold_inner_left", first_unequal(basis, lambda i: (
        fold(on_leg(H.comult2(i), 1, S), 0),
        on_leg(fold({(x, y, i): v for (x, y), v in d1.items()}, 1), 0, S))))


def map_witness(lhs: LinMap, rhs: LinMap):
    """None when the maps are equal, else the witness (key, lhs entry,
    rhs entry) at the least key where their entries differ; a missing
    entry is {}.  Maps of different shapes raise DimensionMismatch."""
    if lhs == rhs:
        return None
    if ((lhs.domain.dim, lhs.codomain.dim)
            != (rhs.domain.dim, rhs.codomain.dim)):
        raise DimensionMismatch("witness of maps with different shapes")
    left, right = lhs.entries, rhs.entries
    key = min(k for k in left.keys() | right.keys()
              if left.get(k, 0) != right.get(k, 0))
    l = left.get(key)
    r = right.get(key)
    return (key, {key: l} if l else {}, {key: r} if r else {})


def entries_witness(lhs: LinMap, rhs: LinMap):
    """None when the two maps are equal, else ((), lhs entries, rhs entries)."""
    return None if lhs == rhs else ((), lhs.entries, rhs.entries)


def _check_counit_absorption(H, report):
    # the form eps(e_i e_j) as a map, column j its table {i: c}
    Bmap = LinMap._adopt(H.space, H.space, _counit_form(H)[1])
    et = H.epsilon_t_map()
    es = H.epsilon_s_map()
    report.record("counit_absorbs_target", map_witness(Bmap.compose(et), Bmap))
    report.record("counit_absorbs_source",
                  map_witness(es.transpose().compose(Bmap), Bmap))


def _check_split_unit_slides(H, report):
    S = H.antipode_map.columns()
    for name, sub, base in (
            # y 1_1 (x) S(1_2) = 1_1 (x) S(1_2) y, for y in the source subalgebra
            ("source_slides_split_unit", H.source_space(),
             on_leg(H.delta_one(), 1, S)),
            # z S(1_1) (x) 1_2 = S(1_1) (x) 1_2 z, for z in the target subalgebra
            ("target_slides_split_unit", H.target_space(),
             on_leg(H.delta_one(), 0, S))):
        def sides(j):
            y = sub.inclusion.column(j)
            return (on_leg({(p, a, b): c * v for (a, b), v in base.items()
                            for p, c in y.items()}, slice(0, 2), H.mult),
                    on_leg({(a, b, p): v * c for (a, b), v in base.items()
                            for p, c in y.items()}, slice(1, 3), H.mult))
        report.record(name, first_unequal(product(range(sub.dim)), sides))


def check_weak_hopf(H: WeakHopfAlgebra) -> VerificationReport:
    """Verify every axiom and derived identity on the structure constants."""
    report = VerificationReport(subject=H.name)
    _check_unit(H, report)
    _check_associativity(H, report)
    _check_counit_axiom(H, report)
    report.record("coalgebra_coassociative",
                  coassociative_mismatch(H.comult, H.comult, H.dim))
    _check_comult_multiplicative(H, report)
    _check_unit_comult(H, report)
    _check_weak_counit(H, report)
    _check_antipode_axioms(H, report)
    _check_delta2_folds(H, report)
    _check_counit_absorption(H, report)
    _check_split_unit_slides(H, report)
    if H.antipode_inverse_map is not None:
        S, S_inv = H.antipode_map, H.antipode_inverse_map
        one = LinMap.identity(H.space)
        report.record("antipode_inverse_two_sided",
                      map_witness(S.compose(S_inv), one)
                      or map_witness(S_inv.compose(S), one))
    return report


def certify(H: WeakHopfAlgebra) -> VerificationReport:
    """Run check_weak_hopf and mark the algebra usable downstream on success."""
    return certified_by(H, check_weak_hopf(H))


def is_hopf(H: WeakHopfAlgebra) -> bool:
    """True when the coproduct of the unit is the unit tensored with itself."""
    return H.delta_one() == {(i, j): a * b for i, a in H.unit.items()
                             for j, b in H.unit.items()}


def is_regular(H: WeakHopfAlgebra) -> bool:
    """True when the antipode squares to the identity on the span closure
    of the target and source subalgebras under multiplication."""
    tgt = H.target_space()
    src = H.source_space()
    gens = [tgt.inclusion.column(j) for j in range(tgt.dim)]
    gens += [src.inclusion.column(j) for j in range(src.dim)]
    span = Subspace.from_span(H.space, gens)
    while True:
        basis_vecs = [span.inclusion.column(j) for j in range(span.dim)]
        products = [H.multiply(u, v) for u in basis_vecs for v in basis_vecs]
        bigger = Subspace.from_span(H.space, basis_vecs + products)
        if bigger.dim == span.dim:
            break
        span = bigger
    for j in range(span.dim):
        v = span.inclusion.column(j)
        if H.antipode(H.antipode(v)) != v:
            return False
    return True
