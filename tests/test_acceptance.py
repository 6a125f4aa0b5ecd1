"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible with ``pytest -s`` or on failure).  All matrix comparisons
are exact Boolean equality."""

import random
from time import perf_counter

from bcnkit import paper
from bcnkit.boolmat import BooleanMatrix
from bcnkit.compiler import LogicalMatrix, algebraic_form
from bcnkit.observe import (
    distinguishing_witness,
    observability_verdict,
    partition_pairs,
)
from bcnkit.oracle import distinguish_oracle, random_model, reach_oracle
from bcnkit.reach import (
    SetFamily,
    StateSet,
    controllability_matrix,
    index_matrix,
    one_step_matrix,
    output_controllability_matrix,
    set_controllability_matrix,
)

from conftest import load_model

REFERENCE_C = paper.from_rows(
    [[1, 1, 1, 1],
     [1, 1, 1, 1],
     [0, 0, 1, 0],
     [1, 1, 1, 1]]
)

LAC_L = (
    [8] * 32
    + [1, 1, 1, 5, 3, 3, 3, 7] * 2
    + [3, 3, 3, 7] + [4, 4, 4, 8] * 3
)


def timed(num, desc, limit, fn):
    start = perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < limit
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc} "
          f"({elapsed:.3f}s, limit {limit}s)")
    assert ok, f"criterion {num} exceeded {limit}s ({elapsed:.3f}s)"


def family(universe, *sets):
    return SetFamily(universe, tuple(StateSet(universe, s) for s in sets))


def test_criterion_1_controllability_matrix():
    def body():
        form = algebraic_form(load_model("toy.bcn"))
        c = controllability_matrix(one_step_matrix(form))
        assert c == REFERENCE_C

    timed(1, "two-state example reproduces the 4x4 closure", 0.1, body)


def test_criterion_2_set_controllability():
    def body():
        form = algebraic_form(load_model("toy.bcn"))
        c = controllability_matrix(one_step_matrix(form))
        j0 = index_matrix(family(4, (1,), (2, 3, 4)))
        jd = index_matrix(family(4, (1, 2), (3, 4)))
        assert set_controllability_matrix(c, j0, jd) == paper.ones(2, 2)
        j0 = index_matrix(family(4, (1, 2, 3), (1, 4)))
        jd = index_matrix(family(4, (3,)))
        assert set_controllability_matrix(c, j0, jd) == paper.from_rows([[1, 0]])

    timed(2, "set controllability verdicts for both set pairs", 0.1, body)


def test_criterion_3_output_controllability():
    def body():
        form = algebraic_form(load_model("toy.bcn"))
        c = controllability_matrix(one_step_matrix(form))
        cy = output_controllability_matrix(c, form)
        assert cy == paper.ones(2, 4)
        assert cy.is_all_ones()

    timed(3, "output controllability matrix is all ones", 0.1, body)


def test_criterion_4_lac_compilation():
    def body():
        form = algebraic_form(load_model("lac_operon.bcn"))
        assert paper.column(form.L, 1) == 8
        assert paper.column(form.L, 33) == 1
        assert paper.column(form.L, 49) == 3
        assert list(form.L.col_index) == LAC_L

    timed(4, "lac operon transition matrix matches the 64-column listing", 0.1, body)


def test_criterion_5_observability_case1():
    def body():
        base = algebraic_form(load_model("lac_operon.bcn"))
        # H entered directly (the criterion's sensor map).
        form = type(base)(
            n=base.n, m=base.m, p=3, L=base.L,
            H=LogicalMatrix(8, (8, 6, 3, 6, 5, 6, 7, 6)),
        )
        part = partition_pairs(form)
        assert paper.theta_indices(part) == (12, 14, 16, 30, 32, 48)
        p0, _ = paper.observability_setup(part)
        assert [s.members for s in p0.sets] == [(12,), (14,), (16,), (30,), (32,), (48,)]
        report = observability_verdict(form)
        assert report.flags == (True,) * 6
        assert report.observable
        # same verdict when the sensor map comes from the DSL
        assert algebraic_form(load_model("lac_case1.bcn")).H == form.H

    timed(5, "lac operon with 3-output sensor map is observable", 1.0, body)


def test_criterion_6_observability_case2():
    def body():
        base = algebraic_form(load_model("lac_operon.bcn"))
        form = type(base)(
            n=base.n, m=base.m, p=2, L=base.L,
            H=LogicalMatrix(4, (1, 1, 2, 2, 3, 3, 4, 4)),
        )
        part = partition_pairs(form)
        assert paper.theta_indices(part) == (2, 20, 38, 56)
        report = observability_verdict(form)
        assert report.flags == (False, True, False, True)
        assert not report.observable
        wit = distinguishing_witness(form, 3, 4)
        assert wit is not None and wit[1] == 1

    timed(6, "lac operon measuring x1,x2 is not observable; witness T=1", 1.0, body)


def test_criterion_7_oracle_equivalence():
    def body():
        rng = random.Random(987654321)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(0, 2)
            p = rng.randint(0, 2)
            model = random_model(rng, n, m, p)
            form = algebraic_form(model)
            c = controllability_matrix(one_step_matrix(form))
            assert reach_oracle(model) == c
            if p >= 1:
                report = observability_verdict(form)
                assert dict(distinguish_oracle(model)) == dict(
                    zip(report.theta, report.flags)
                )

    timed(7, "200 seeded random models: oracle equals matrix path", 60.0, body)


def test_criterion_8_algebra_properties():
    def body():
        rng = random.Random(42424242)

        def rand_square(max_size=64):
            size = rng.randint(1, max_size)
            return BooleanMatrix(size, size, [rng.getrandbits(size) for _ in range(size)])

        for _ in range(100):
            a = rand_square()
            b = rand_square(8)
            c = rand_square(8)
            # associativity / transpose reversal on mixed shapes
            assert paper.stp(paper.stp(a, b), c) == paper.stp(a, paper.stp(b, c))
            assert paper.stp(a, b).transpose() == paper.stp(b.transpose(), a.transpose())
            # distributivity needs two same-shaped summands
            b2 = BooleanMatrix(b.rows, b.cols, [rng.getrandbits(b.cols) for _ in range(b.rows)])
            assert paper.stp(b.add(b2), c) == paper.stp(b, c).add(paper.stp(b2, c))
            assert paper.stp(c, b.add(b2)) == paper.stp(c, b).add(paper.stp(c, b2))
            # column-vector pseudo-commutation
            t = rng.randint(1, 8)
            x = BooleanMatrix(t, 1, [rng.getrandbits(1) for _ in range(t)])
            assert paper.stp(x, b) == paper.stp(paper.kron(BooleanMatrix.identity(t), b), x)
            # closure fixpoint equals the literal Boolean power sum
            acc = a
            power = a
            for _ in range(2, a.rows + 1):
                power = power.mul(a)
                acc = acc.add(power)
            assert controllability_matrix(a) == acc

    timed(8, "STP laws and closure/power-sum equality on 100 random matrices", 30.0, body)


def test_criterion_9_partition_and_symmetry():
    def body():
        rng = random.Random(13571357)
        # partition of the pair space, for random output maps up to n=4
        for n in (1, 2, 3, 4):
            for _ in range(15):
                model = random_model(rng, n, 0, rng.randint(1, 2))
                part = partition_pairs(algebraic_form(model))
                total = 1 << (2 * n)
                d, th, xi = paper.diagonal(part), paper.theta_ordered(part), part.xi
                assert len(d) + len(th) + len(xi) == total
                assert d | th | xi == frozenset(range(1, total + 1))
                assert not (d & th) and not (d & xi) and not (th & xi)
        # orientation-swapped verdicts agree
        for _ in range(25):
            form = algebraic_form(
                random_model(rng, rng.randint(2, 3), rng.randint(0, 2), rng.randint(1, 2))
            )
            for z, x in partition_pairs(form).theta:
                a = distinguishing_witness(form, z, x)
                b = distinguishing_witness(form, x, z)
                assert (a is None) == (b is None)
        # diagonal absorption along 1000 random extended trajectories
        form = algebraic_form(load_model("lac_case1.bcn"))
        ext = paper.pair_maps(form)
        diag = paper.diagonal(partition_pairs(form))
        diag_list = sorted(diag)
        for _ in range(1000):
            w = rng.choice(diag_list)
            for _ in range(8):
                w = ext[rng.randrange(len(ext))][w - 1]
                assert w in diag

    timed(9, "pair partition, orientation symmetry, diagonal absorption", 30.0, body)
