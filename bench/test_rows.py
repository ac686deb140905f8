"""Timed rows of the north-star example matrix, for pytest-benchmark.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-json=BENCH.json

Each row times one stage of the six-stage pipeline (certify ->
certify_quasitriangular -> transmute -> certify_braided_hopf ->
check_monoidal_coherence -> check_equivalence_roundtrip), the whole
pipeline, the split of one truncation carrier, the triple truncation
projector (on Z_12 and on the groupoid 3 x 4), or the split of an
idempotent that is not a coordinate projection, on freshly built
objects.  The stages before the timed one run in the untimed setup of
every round.  With --benchmark-disable each row runs once, as a smoke
test.  bench/ is outside the tier-1 testpaths.
"""

import random

from whakit import examples
from whakit.linalg import (LinMap, VectorSpace, _coordinate_split,
                           split_idempotent)
from whakit.module_cat import (check_monoidal_coherence, regular_module,
                               triple_projector, unit_object)
from whakit.quasitriangular import certify_quasitriangular
from whakit.transmutation import certify_braided_hopf, transmute
from whakit.weak_hopf import certify
from whakit.yetter_drinfeld import check_equivalence_roundtrip


def certified(build):
    """(H, R, B): H and R certified, B the transmutation of H."""
    H, R = build()
    assert certify(H).passed
    assert certify_quasitriangular(H, R).passed
    return H, R, transmute(H, R)


def coherence(H, R):
    modules = [regular_module(H), unit_object(H)]
    return check_monoidal_coherence(H, R, modules, random.Random(0))


def six_stages(H, R):
    assert certify(H).passed
    assert certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert certify_braided_hopf(B).passed
    assert coherence(H, R).passed
    return check_equivalence_roundtrip(H, R, braided=B)


def run_row(benchmark, setup, fn, rounds):
    report = benchmark.pedantic(fn, setup=setup, rounds=rounds, iterations=1)
    assert report.passed


def test_sweedler_pipeline(benchmark):
    run_row(benchmark, lambda: (examples.sweedler(), {}), six_stages, rounds=5)


def test_certify_braided_hopf_z32(benchmark):
    def setup():
        _, _, B = certified(lambda: examples.group_algebra_zn(32))
        return (B,), {}
    run_row(benchmark, setup, certify_braided_hopf, rounds=3)


def test_monoidal_coherence_z16(benchmark):
    def setup():
        H, R, _ = certified(lambda: examples.group_algebra_zn(16))
        return (H, R), {}
    run_row(benchmark, setup, coherence, rounds=3)


def test_monoidal_coherence_z32(benchmark):
    # the north star's largest Z_n
    def setup():
        H, R, _ = certified(lambda: examples.group_algebra_zn(32))
        return (H, R), {}
    run_row(benchmark, setup, coherence, rounds=3)


def test_monoidal_coherence_anyonic_z5(benchmark):
    def setup():
        H, R, _ = certified(lambda: examples.group_algebra_zn_anyonic(5))
        return (H, R), {}
    run_row(benchmark, setup, coherence, rounds=3)


def test_monoidal_coherence_groupoid_3x4(benchmark):
    # the weak family: the pair groupoid on three objects times Z_4
    def setup():
        H, R, _ = certified(lambda: examples.groupoid_algebra(3, 4))
        return (H, R), {}
    run_row(benchmark, setup, coherence, rounds=3)


def test_equivalence_roundtrip_anyonic_z5(benchmark):
    def setup():
        H, R, B = certified(lambda: examples.group_algebra_zn_anyonic(5))
        return (H, R), {"braided": B}
    run_row(benchmark, setup, check_equivalence_roundtrip, rounds=3)


def test_equivalence_roundtrip_z12(benchmark):
    # R = 1 (x) 1: translation_monoidal, over the nine pairs of samples,
    # dominates, and each pair carrier's action is read only at R^1 = 1
    def setup():
        H, R, B = certified(lambda: examples.group_algebra_zn(12))
        return (H, R), {"braided": B}
    run_row(benchmark, setup, check_equivalence_roundtrip, rounds=3)


def test_split_triple_carrier_z12(benchmark):
    def setup():
        H, _, _ = certified(lambda: examples.group_algebra_zn(12))
        M = regular_module(H)
        return (triple_projector(M, M, M),), {}
    carrier = benchmark.pedantic(split_idempotent, setup=setup, rounds=5,
                                 iterations=1)
    assert carrier.dim == 12 ** 3


def test_triple_projector_z12(benchmark):
    # The action of the twice-iterated coproduct of 1 on the Z_12 regular
    # module cubed: 1 tensor 1 tensor 1, whose rows {a: 1} make it the
    # identity on 1,728 columns, built without act.
    def setup():
        H, _, _ = certified(lambda: examples.group_algebra_zn(12))
        M = regular_module(H)
        return (M, M, M), {}
    P = benchmark.pedantic(triple_projector, setup=setup, rounds=5,
                           iterations=1)
    assert len(P.entries) == 12 ** 3


def test_triple_projector_groupoid_3x4(benchmark):
    # The weak family's projector on the regular module cubed: the sum of
    # 1_x tensor 1_x tensor 1_x over the three objects, a 0/1 diagonal of
    # rank 3 * 12 ** 3 of the 36 ** 3 basis tensors.
    def setup():
        H, _, _ = certified(lambda: examples.groupoid_algebra(3, 4))
        M = regular_module(H)
        return (M, M, M), {}
    P = benchmark.pedantic(triple_projector, setup=setup, rounds=5,
                           iterations=1)
    assert len(P.entries) == 3 * 12 ** 3


def test_split_oblique_idempotent_1728(benchmark):
    # The Z_12 triple carrier is a coordinate projection, split without
    # elimination.  This row keeps elimination timed at that size: the
    # projection P onto the even coordinates conjugated by U = I + E,
    # where E sends e_2k+1 to e_2k + e_2k+2 and kills the even ones, so
    # E E = 0, U^-1 = I - E and U P U^-1 = P - E.
    n = 12 ** 3

    def setup():
        space = VectorSpace(n)
        E = {}
        for k in range(1, n, 2):
            E[(k - 1, k)] = 1
            E[((k + 1) % n, k)] = 1
        P = LinMap(space, space, {(k, k): 1 for k in range(0, n, 2)})
        identity = {(k, k): 1 for k in range(n)}
        # E has no diagonal entry, so I + E and I - E take E's entries
        U = LinMap(space, space, {**identity, **E})
        U_inv = LinMap(space, space,
                       {**identity, **{k: -v for k, v in E.items()}})
        Q = U.compose(P).compose(U_inv)
        assert _coordinate_split(Q) is None
        return (Q,), {}
    carrier = benchmark.pedantic(split_idempotent, setup=setup, rounds=5,
                                 iterations=1)
    assert carrier.dim == n // 2
