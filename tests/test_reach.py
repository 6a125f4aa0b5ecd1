import random

import pytest

from bcnkit.boolmat import BooleanMatrix, LogicalMatrix
from bcnkit.compiler import algebraic_form
from bcnkit.netlang import parse_network
from bcnkit.oracle import random_model, reach_oracle
from bcnkit.reach import (
    SetFamily,
    StateSet,
    controllability_matrix,
    index_matrix,
    load_set_spec,
    one_step_matrix,
    output_controllability_matrix,
    set_controllability_matrix,
)

TOY_C = BooleanMatrix.from_rows(
    [[1, 1, 1, 1],
     [1, 1, 1, 1],
     [0, 0, 1, 0],
     [1, 1, 1, 1]]
)


@pytest.fixture(scope="module")
def toy_c(toy_form):
    return controllability_matrix(one_step_matrix(toy_form))


def family(universe, *sets):
    return SetFamily(universe, tuple(StateSet(universe, s) for s in sets))


class TestOneStep:
    def test_toy_column_supports(self, toy_form):
        m = one_step_matrix(toy_form)
        assert m.column_support(1) == (2,)
        assert m.column_support(2) == (2, 4)
        assert m.column_support(3) == (1, 2, 3, 4)
        assert m.column_support(4) == (1, 2)

    def test_autonomous_identity(self):
        form = algebraic_form(parse_network("network a\nstates: x1\nx1' = x1\n"))
        assert one_step_matrix(form) == BooleanMatrix.identity(2)

    def test_pure_input(self):
        form = algebraic_form(parse_network("network a\nstates: x1\ninputs: u1\nx1' = u1\n"))
        assert one_step_matrix(form) == BooleanMatrix.ones(2, 2)


class TestClosure:
    def test_toy_matches_reference(self, toy_c):
        assert toy_c == TOY_C

    def test_identity_fixed(self):
        assert controllability_matrix(BooleanMatrix.identity(4)) == BooleanMatrix.identity(4)

    def test_single_edge(self):
        m = BooleanMatrix.from_rows([[0, 0], [1, 0]])
        assert controllability_matrix(m) == m

    def test_fixpoint_equals_power_sum(self):
        # Literal definition: OR of M^(i) for i = 1..size, computed
        # independently of the fixpoint iteration it checks.
        rng = random.Random(20240901)
        for _ in range(40):
            size = rng.choice([2, 4, 8, 16, 32, 64])
            m = BooleanMatrix(size, size, [rng.getrandbits(size) for _ in range(size)])
            acc = m
            power = m
            for _ in range(2, size + 1):
                power = power.mul(m)
                acc = acc.add(power)
            assert controllability_matrix(m) == acc

    def test_diagonal_requires_cycle(self):
        # A state reaches itself only via a genuine (T > 0) cycle.
        m = BooleanMatrix.from_rows([[0, 0], [1, 0]])
        c = controllability_matrix(m)
        assert c.get(1, 1) == 0 and c.get(2, 2) == 0


def paper_closure(m):
    """The paper's loop C <- M + M*C from C = M, literally: the closure
    and the number of rounds (one product each) until C stops changing."""
    c, rounds = m, 0
    while True:
        nxt = m.add(m.mul(c))
        rounds += 1
        if nxt == c:
            return c, rounds
        c = nxt


def closure_draws(kind):
    """Seeded one-step matrices of one kind: random models (n 1-7, m 0-3),
    the one-state matrices (the n = 0 models among them), and random
    matrices with all-zero rows or with no self-loop (every other one
    acyclic, with a chain through all states)."""
    rng = random.Random(20261019)
    if kind == "random_model":
        for k in range(70):
            model = random_model(rng, n=1 + k % 7, m=rng.randint(0, 3), p=1)
            yield one_step_matrix(algebraic_form(model))
    elif kind == "one_state":
        for m in range(4):
            yield one_step_matrix(algebraic_form(random_model(rng, n=0, m=m, p=1)))
        yield BooleanMatrix.identity(1)
        yield BooleanMatrix.zeros(1, 1)
    else:
        for k in range(60):
            size = rng.randint(1, 40)
            rows = [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(size)]
            if kind == "zero_rows":
                for i in rng.sample(range(size), rng.randint(1, size)):
                    rows[i] = 0
            elif k % 2:  # acyclic and sparse: a chain, and a few edges from lower states
                sparse = (b & rng.getrandbits(i) & rng.getrandbits(i) for i, b in enumerate(rows))
                rows = [b | 1 << i >> 1 for i, b in enumerate(sparse)]
            else:
                rows = [b & ~(1 << i) for i, b in enumerate(rows)]
            yield BooleanMatrix(size, size, rows)


class TestClosureIteration:
    @pytest.mark.parametrize("kind", ["random_model", "one_state", "zero_rows", "no_self_loop"])
    def test_equals_paper_loop(self, kind, monkeypatch):
        # One product per round, C <- (I+M)*C, must give the paper's closure
        # in the paper's number of rounds, all with one left operand and
        # one gather plan.
        real_mul, real_plan = BooleanMatrix.mul, BooleanMatrix._gather_plan
        for k, m in enumerate(closure_draws(kind)):
            expected, rounds = paper_closure(m)
            lefts, plans = [], []
            monkeypatch.setattr(BooleanMatrix, "mul", lambda a, b: lefts.append(a) or real_mul(a, b))
            monkeypatch.setattr(BooleanMatrix, "_gather_plan", lambda a: plans.append(a) or real_plan(a))
            c = controllability_matrix(m)
            monkeypatch.undo()
            assert (c, len(lefts)) == (expected, rounds), f"{kind} draw {k}"
            assert len({id(a) for a in lefts}) == 1 and plans == lefts[:1], f"{kind} draw {k}"


# The 8-bit counter: xk' = xk ^ (u & x1 & ... & x(k-1)), y = x1 & ... & x8.
# Its one-step graph is a 256-cycle plus self-loops, so the closure
# needs 255 rounds before it stops changing.
COUNTER8 = """\
network counter8
states: x1, x2, x3, x4, x5, x6, x7, x8
inputs: u
outputs: y
x1' = x1 ^ (u)
x2' = x2 ^ (u & x1)
x3' = x3 ^ (u & x1 & x2)
x4' = x4 ^ (u & x1 & x2 & x3)
x5' = x5 ^ (u & x1 & x2 & x3 & x4)
x6' = x6 ^ (u & x1 & x2 & x3 & x4 & x5)
x7' = x7 ^ (u & x1 & x2 & x3 & x4 & x5 & x6)
x8' = x8 ^ (u & x1 & x2 & x3 & x4 & x5 & x6 & x7)
y = x1 & x2 & x3 & x4 & x5 & x6 & x7 & x8
"""


class TestLongClosure:
    @pytest.fixture(scope="class")
    def counter(self):
        model = parse_network(COUNTER8)
        return model, algebraic_form(model), reach_oracle(model)

    def test_closure_rounds_and_oracle(self, counter, monkeypatch):
        _, form, truth = counter
        rounds = []
        real = BooleanMatrix.mul
        monkeypatch.setattr(BooleanMatrix, "mul", lambda a, b: rounds.append(1) or real(a, b))
        c = controllability_matrix(one_step_matrix(form))
        assert len(rounds) == 255
        assert c.is_all_ones()
        assert c == truth

    def test_products_match_oracle_closure(self, counter):
        # The expected entries are read off the oracle's closure entry by
        # entry, without a matrix product.
        _, form, truth = counter
        c = controllability_matrix(one_step_matrix(form))
        initial = [(1,), (2, 200), tuple(range(10, 60))]
        destination = [(256,), (3, 5, 7), tuple(range(1, 257, 2)), (128,)]
        j0 = index_matrix(family(256, *initial))
        jd = index_matrix(family(256, *destination))
        assert set_controllability_matrix(c, j0, jd) == BooleanMatrix.from_rows([
            [int(any(truth.get(i, j) for i in dst for j in src)) for src in initial]
            for dst in destination
        ])
        assert output_controllability_matrix(c, form) == BooleanMatrix.from_rows([
            [int(any(truth.get(i, j) for i in range(1, 257) if form.H.column(i) == v))
             for j in range(1, 257)]
            for v in (1, 2)
        ])


class TestIndexMatrix:
    def test_case1_families(self):
        j0 = index_matrix(family(4, (1,), (2, 3, 4)))
        assert j0 == BooleanMatrix.from_rows([[1, 0], [0, 1], [0, 1], [0, 1]])
        jd = index_matrix(family(4, (1, 2), (3, 4)))
        assert jd == BooleanMatrix.from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_case2_families(self):
        assert index_matrix(family(4, (3,))) == BooleanMatrix.from_rows(
            [[0], [0], [1], [0]]
        )

    def test_singletons_make_identity(self):
        fam = family(4, (1,), (2,), (3,), (4,))
        assert index_matrix(fam) == BooleanMatrix.identity(4)

    def test_duplicate_sets_flagged(self):
        fam = family(4, (1, 2), (1, 2))
        assert fam.duplicates() == ("set #2 duplicates set #1",)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            index_matrix(SetFamily(4, ()))


class TestSetControllability:
    def test_reachable_case(self, toy_c):
        j0 = index_matrix(family(4, (1,), (2, 3, 4)))
        jd = index_matrix(family(4, (1, 2), (3, 4)))
        cs = set_controllability_matrix(toy_c, j0, jd)
        assert cs == BooleanMatrix.ones(2, 2)
        assert cs.is_all_ones()

    def test_unreachable_case(self, toy_c):
        j0 = index_matrix(family(4, (1, 2, 3), (1, 4)))
        jd = index_matrix(family(4, (3,)))
        cs = set_controllability_matrix(toy_c, j0, jd)
        assert cs == BooleanMatrix.from_rows([[1, 0]])
        assert not cs.is_all_ones()

    def test_identity_families_recover_closure(self, toy_c):
        eye = index_matrix(family(4, (1,), (2,), (3,), (4,)))
        assert set_controllability_matrix(toy_c, eye, eye) == toy_c

    def test_singleton_families_give_submatrix(self, toy_c):
        j0 = index_matrix(family(4, (2,), (4,)))
        jd = index_matrix(family(4, (1,), (3,)))
        cs = set_controllability_matrix(toy_c, j0, jd)
        for bi, i in enumerate((1, 3), start=1):
            for aj, j in enumerate((2, 4), start=1):
                assert cs.get(bi, aj) == toy_c.get(i, j)

    def test_monotone_in_set_growth(self, toy_c):
        rng = random.Random(7)
        for _ in range(30):
            base = tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3))))
            extra = tuple(sorted(set(base) | {rng.randint(1, 4)}))
            j0a = index_matrix(family(4, base))
            j0b = index_matrix(family(4, extra))
            jd = index_matrix(family(4, tuple(sorted(rng.sample(range(1, 5), 2)))))
            small = set_controllability_matrix(toy_c, j0a, jd)
            big = set_controllability_matrix(toy_c, j0b, jd)
            assert small <= big


class TestOutputControllability:
    def test_toy_all_ones(self, toy_form, toy_c):
        cy = output_controllability_matrix(toy_c, toy_form)
        assert cy == BooleanMatrix.ones(2, 4)

    def test_matches_index_matrix_route(self, toy_form, toy_c):
        # H C equals Jd^T C J0 with the output classes and singletons.
        classes = [
            tuple(a for a in range(1, 5) if toy_form.H.column(a) == v)
            for v in range(1, toy_form.H.rows + 1)
        ]
        jd = index_matrix(family(4, *classes))
        j0 = BooleanMatrix.identity(4)
        assert output_controllability_matrix(toy_c, toy_form) == set_controllability_matrix(
            toy_c, j0, jd
        )
        assert jd == toy_form.H.to_boolean().transpose()

    def test_unused_output_value_blocks(self):
        form = algebraic_form(
            parse_network(
                "network a\nstates: x1\ninputs: u1\noutputs: y1\nx1' = u1\ny1 = 1\n"
            )
        )
        c = controllability_matrix(one_step_matrix(form))
        cy = output_controllability_matrix(c, form)
        assert [cy.get(2, j) for j in (1, 2)] == [0, 0]
        assert not cy.is_all_ones()

    def test_identity_everything(self):
        form = algebraic_form(
            parse_network("network a\nstates: x1\noutputs: y1\nx1' = x1\ny1 = x1\n")
        )
        c = BooleanMatrix.identity(2)
        cy = output_controllability_matrix(c, form)
        assert cy == BooleanMatrix.identity(2)
        assert not cy.is_all_ones()


    def test_rows_by_output_value_match_dense_product(self):
        # Row v of H C is built as the OR of C's rows over the states whose
        # output is v; it must equal the dense product with H made Boolean,
        # also with 20 outputs, where 2^20 - 2^10 rows of H C stay zero.
        rng = random.Random(4242)
        forms = [algebraic_form(random_model(rng, rng.randint(1, 4), rng.randint(0, 2), rng.randint(1, 4)))
                 for _ in range(200)]
        xs = [f"x{i}" for i in range(1, 11)]
        ys = [f"y{k}" for k in range(1, 21)]
        forms.append(algebraic_form(parse_network("\n".join([
            "network ident", "states: " + ", ".join(xs), "outputs: " + ", ".join(ys),
            *[f"{x}' = {x}" for x in xs], *[f"{y} = {xs[k % 10]}" for k, y in enumerate(ys)], "",
        ]))))
        for form in forms:
            c = controllability_matrix(one_step_matrix(form))
            assert output_controllability_matrix(c, form) == form.H.to_boolean().mul(c)

class TestSetSpecFiles:
    def test_indices_and_bitstrings(self):
        text = """{
            "initial": [{"name": "a", "states": [1, "01"]}],
            "destination": [{"name": "b", "states": ["10"]}]
        }"""
        p0, pd = load_set_spec(text, 2)
        assert p0.sets[0].members == (1, 3)
        assert pd.sets[0].members == (2,)

    def test_bad_bitstring(self):
        with pytest.raises(ValueError):
            load_set_spec('{"initial": [{"states": ["111"]}], "destination": [{"states": [1]}]}', 2)

    def test_missing_section(self):
        with pytest.raises(ValueError):
            load_set_spec('{"initial": []}', 2)
