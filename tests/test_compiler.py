import random
from types import SimpleNamespace

import pytest

from bcnkit import compiler, netlang, observe, oracle, paper
from bcnkit.compiler import (
    LogicalMatrix,
    SizeLimitError,
    _columns,
    algebraic_form,
    decode_state,
    encode_state,
    render_algebraic,
    structure_matrix,
)
from bcnkit.netlang import And, Const, NetworkModel, Not, Or, Var, Xor, eval_expr, parse_expr, parse_network
from conftest import counter_text

# Transcription of the lac-operon transition matrix (64 column indices):
# the first four control blocks force the all-off state, the rest follow
# the induction truth tables.
LAC_L = (
    [8] * 32
    + [1, 1, 1, 5, 3, 3, 3, 7] * 2
    + [3, 3, 3, 7] + [4, 4, 4, 8] * 3
)


class TestCodec:
    def test_all_true_is_first(self):
        assert encode_state((1, 1, 1)) == 1

    def test_all_false_is_last(self):
        assert encode_state((0, 0, 0)) == 8

    def test_mixed(self):
        assert encode_state((1, 0, 1)) == 3

    def test_decode(self):
        assert decode_state(3, 3) == (1, 0, 1)
        assert decode_state(1, 2) == (1, 1)
        assert decode_state(4, 2) == (0, 0)

    def test_round_trip(self):
        for k in range(0, 5):
            for idx in range(1, (1 << k) + 1):
                assert encode_state(decode_state(idx, k)) == idx

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            decode_state(9, 3)

    def test_kron_consistency(self):
        # The index equals the position of the Kronecker product of the
        # per-bit basis vectors.
        from bcnkit.boolmat import BooleanMatrix

        for bits in [(1, 0, 1), (0, 1), (1,), (0, 0, 0)]:
            vec = BooleanMatrix.identity(1)
            for b in bits:
                vec = paper.stp(vec, paper.basis_column(2, 1 if b else 2))
            assert paper.column_support(vec, 1) == (encode_state(bits),)


class TestStructureMatrix:
    def test_negation(self):
        assert structure_matrix(parse_expr("!x1"), ["x1"]) == LogicalMatrix(2, (2, 1))

    def test_and(self):
        assert structure_matrix(parse_expr("x1 & x2"), ["x1", "x2"]) == LogicalMatrix(
            2, (1, 2, 2, 2)
        )

    def test_toy_first_update(self):
        e = parse_expr("(x1 <-> x2) | u1")
        assert structure_matrix(e, ["u1", "x1", "x2"]) == LogicalMatrix(
            2, (1, 1, 1, 1, 1, 2, 2, 1)
        )

    def test_unbound_variable(self):
        with pytest.raises(ValueError):
            structure_matrix(parse_expr("x1 & z"), ["x1"])

    def test_unbound_variables_all_reported(self):
        with pytest.raises(ValueError, match=r"unbound variables \['y', 'z'\]"):
            structure_matrix(parse_expr("z & x1 | !y"), ["x1"])

    @pytest.mark.parametrize(
        "text",
        ["!a", "a & b", "a | b", "a ^ b", "a -> b", "a <-> b", "!0", "1 -> a", "b <-> 0"],
    )
    def test_operator_matches_eval_expr(self, text):
        e = parse_expr(text)
        for variables in (["a", "b"], ["b", "a"], ["a", "c", "b"]):
            k = len(variables)
            expect = tuple(
                1 if eval_expr(e, dict(zip(variables, decode_state(a, k)))) else 2
                for a in range(1, (1 << k) + 1)
            )
            assert structure_matrix(e, variables) == LogicalMatrix(2, expect)

    def test_no_variables(self):
        assert structure_matrix(parse_expr("1 ^ 0"), []) == LogicalMatrix(2, (1,))

    def test_unique_tabulation(self):
        # The structure matrix is the unique logical matrix reproducing the
        # function on every vector-form argument.
        from bcnkit.boolmat import BooleanMatrix

        e = parse_expr("(x1 -> x2) ^ x3")
        variables = ["x1", "x2", "x3"]
        mf = paper.to_boolean(structure_matrix(e, variables))
        for a in range(1, 9):
            bits = decode_state(a, 3)
            arg = BooleanMatrix.identity(1)
            for b in bits:
                arg = paper.stp(arg, paper.basis_column(2, 1 if b else 2))
            val = paper.stp(mf, arg)
            expect = eval_expr(e, dict(zip(variables, bits)))
            assert paper.column_support(val, 1) == (1 if expect else 2,)


class TestAlgebraicForm:
    def test_toy_output_matrix(self, toy_form):
        assert toy_form.H == LogicalMatrix(2, (1, 2, 2, 2))

    def test_lac_transition_matrix(self, lac_case1_form):
        assert list(lac_case1_form.L.col_index) == LAC_L
        assert paper.column(lac_case1_form.L, 1) == 8
        assert paper.column(lac_case1_form.L, 33) == 1
        assert paper.column(lac_case1_form.L, 49) == 3

    def test_single_state_autonomous(self):
        form = algebraic_form(parse_network("network a\nstates: x1\nx1' = !x1\n"))
        assert form.L == LogicalMatrix(2, (2, 1))
        assert (form.m, form.p) == (0, 0)

    def test_no_outputs_flagged(self):
        form = algebraic_form(parse_network("network a\nstates: x1\nx1' = x1\n"))
        assert form.p == 0
        assert form.H == LogicalMatrix(1, (1, 1))

    def test_size_limit(self):
        states = ", ".join(f"x{i}" for i in range(1, 22))
        rules = "\n".join(f"x{i}' = x{i}" for i in range(1, 22))
        model = parse_network(f"network big\nstates: {states}\n{rules}\n")
        with pytest.raises(SizeLimitError):
            algebraic_form(model)
        # override allows it through
        form = algebraic_form(model, max_vars=21)
        assert form.n == 21

    def test_deep_rule(self):
        # A 5000-deep left-nested chain: tabulation must not hit the
        # recursion limit.
        names = ("x1", "x2", "x3")
        deep = Var("x1")
        for k in range(5000):
            deep = And(deep, Var(names[k % 3]))
        shallow = parse_expr("x1 & x2 & x3")

        def compiled(rule):
            return algebraic_form(NetworkModel(
                "deep", names, ("u1",), ("y1",),
                (rule, Not(Var("u1")), Var("x1")), (rule,),
            ))

        a, b = compiled(deep), compiled(shallow)
        assert a.L == b.L and a.H == b.H

    def test_many_outputs(self):
        # 70 output bits give 71-digit runs in the grid, and indices wider
        # than any array typecode.
        states = ("x1", "x2")
        maps = tuple(Var(states[k % 2]) if k % 3 else Not(Var("x2")) for k in range(70))
        model = NetworkModel("wide", states, (), tuple(f"y{k}" for k in range(70)),
                             (Var("x2"), Var("x1")), maps)
        assert algebraic_form(model).H == LogicalMatrix(1 << 70, _reference_columns(maps, states))

    def test_unbound_variable_in_rule(self):
        model = NetworkModel("u", ("x1",), (), (), (And(Var("x1"), Var("v")),), ())
        with pytest.raises(ValueError, match="unbound variables"):
            algebraic_form(model)

    def test_one_size_limit_error(self):
        assert observe.SizeLimitError is SizeLimitError
        assert oracle.SizeLimitError is SizeLimitError

    def test_deterministic(self, toy_model):
        a = algebraic_form(toy_model)
        b = algebraic_form(toy_model)
        assert a.L == b.L and a.H == b.H

    def test_render_header(self, toy_form):
        out = render_algebraic(toy_form)
        assert out.startswith("n=2 m=2 p=1\n")
        assert "delta 4 [" in out and "delta 2 [" in out


class TestStateMaps:
    """`state_maps` is the one place that groups controls by state map:
    each distinct `successors(j)`, in order of first appearance, goes to
    the smallest control that has it, the identity included."""

    @staticmethod
    def _expected(form):
        succs = [form.successors(j) for j in range(1, form.control_count + 1)]
        return [(s, k + 1) for k, s in enumerate(succs) if succs.index(s) == k]

    def test_counters(self):
        for n in range(1, 6):
            form = algebraic_form(parse_network(counter_text(n)))
            assert list(form.state_maps().items()) == self._expected(form)
            assert list(form.state_maps().values()) == [1, 2]
            assert form.successors(2) == tuple(range(1, (1 << n) + 1))  # u = 0 holds every state

    def test_random_models(self):
        rng = random.Random(2718)
        for k in range(80):
            form = algebraic_form(oracle.random_model(rng, rng.randint(1, 4), k % 4, rng.randint(0, 2)))
            assert list(form.state_maps().items()) == self._expected(form), k

    def test_ignored_input_repeats_maps(self):
        # u2 appears in no rule, so controls 1 and 2 (and 3 and 4) share a map.
        form = algebraic_form(parse_network(
            "network r\nstates: x1, x2\ninputs: u1, u2\nx1' = x2 & u1\nx2' = !x1\n"))
        assert form.successors(1) == form.successors(2) != form.successors(3) == form.successors(4)
        assert list(form.state_maps().items()) == self._expected(form)
        assert list(form.state_maps().values()) == [1, 3]


def _simulate(model, j, a):
    from bcnkit.compiler import decode_state as dec, encode_state as enc

    env = dict(zip(model.inputs, dec(j, model.m)))
    env.update(zip(model.states, dec(a, model.n)))
    return enc([eval_expr(f, env) for f in model.updates])


class TestSimulationEquivalence:
    """For every small model: the DSL-level step agrees with L u x via stp."""

    SOURCES = [
        "network a\nstates: x1, x2\ninputs: u1\nx1' = x1 ^ u1\nx2' = x1 -> x2\n",
        "network b\nstates: x1, x2, x3\ninputs: u1, u2\n"
        "x1' = (x1 | x2) & !u1\nx2' = x3 <-> u2\nx3' = !x1\n",
        "network c\nstates: x1\nx1' = !x1\n",
        "network d\nstates: x1, x2\nx1' = x2\nx2' = x1 & x2\n",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_exhaustive_agreement(self, src):
        model = parse_network(src)
        form = algebraic_form(model)
        l_dense = paper.to_boolean(form.L)
        for j in range(1, (1 << model.m) + 1):
            u = paper.basis_column(1 << model.m, j)
            for a in range(1, (1 << model.n) + 1):
                x = paper.basis_column(1 << model.n, a)
                nxt = paper.stp(paper.stp(l_dense, u), x)
                assert paper.column_support(nxt, 1) == (_simulate(model, j, a),)
                assert form.successors(j)[a - 1] == _simulate(model, j, a)


def _reference_columns(exprs, variables):
    """Per-column evaluation with eval_expr, the oracle's evaluator."""
    k = len(variables)
    cols = []
    for a in range(1, (1 << k) + 1):
        env = dict(zip(variables, decode_state(a, k)))
        cols.append(encode_state([eval_expr(e, env) for e in exprs]))
    return tuple(cols)


class TestColumns:
    """`_columns` reads the column indices back through one lane per
    column, of 1, 2, 4 or 8 bytes read at once, or wider and read one at a
    time: rule counts on both sides of every lane-width switch (an index
    needs one bit more than the rule count), over 0-3 variables."""

    RULES = [0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 70]

    @staticmethod
    def _rules(rng, variables, count):
        def leaf():
            if not variables or rng.random() < 0.2:
                return Const(rng.randint(0, 1))
            return Var(rng.choice(variables))

        ops = (And, Or, Xor)
        return tuple(rng.choice([leaf, lambda: Not(leaf()), lambda: rng.choice(ops)(leaf(), leaf())])()
                     for _ in range(count))

    @pytest.mark.parametrize("rules", RULES)
    @pytest.mark.parametrize("k", range(4))
    def test_matches_reference(self, rules, k):
        rng = random.Random(100 * rules + k)
        variables = ["a", "b", "c"][:k]
        for _ in range(3):
            exprs = self._rules(rng, variables, rules)
            cols = _columns(exprs, variables)
            assert cols == _reference_columns(exprs, variables)
            # `state_maps` keys a dict by the columns, and `Record` hashes them.
            assert type(cols) is tuple and all(type(c) is int for c in cols)

    @pytest.mark.parametrize("rules", RULES)
    def test_widest_index_fits_its_lane(self, rules):
        # Every rule false at every column: each index is 2^rules, which
        # needs all rules + 1 bits of the lane.
        assert _columns((Const(0),) * rules, ["a", "b"]) == (1 << rules,) * 4

    @pytest.mark.parametrize("order", ["little", "big"])
    def test_wide_lanes_in_either_byte_order(self, monkeypatch, order):
        # Lanes wider than 8 bytes are read back one at a time in the byte
        # order the sum was written in, so either order lays them out right.
        rng = random.Random(7)
        variables = ["a", "b", "c"]
        exprs = self._rules(rng, variables, 70)
        monkeypatch.setattr(compiler, "sys", SimpleNamespace(byteorder=order))
        assert _columns(exprs, variables) == _reference_columns(exprs, variables)


def _node_types(e):
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        seen.add(type(node))
        if isinstance(node, Not):
            stack.append(node.operand)
        elif hasattr(node, "left"):
            stack += (node.left, node.right)
    return seen


class TestDifferential:
    """The bit-sliced compiler against per-column eval_expr."""

    def test_random_models(self):
        rng = random.Random(2024)
        kinds = set()
        shapes = set()
        for k in range(300):
            n = rng.randint(1, 9)
            m = 0 if k % 10 == 0 else rng.randint(0, min(4, 10 - n))
            p = 0 if k % 10 == 1 else rng.randint(1, 3)
            model = oracle.random_model(rng, n, m, p, name=f"d{k}", depth=rng.randint(1, 4))
            form = algebraic_form(model)
            expect_l = _reference_columns(model.updates, model.inputs + model.states)
            assert form.L == LogicalMatrix(1 << n, expect_l), k
            if p:
                expect_h = _reference_columns(model.output_maps, model.states)
                assert form.H == LogicalMatrix(1 << p, expect_h), k
            else:
                assert form.p == 0 and form.H == LogicalMatrix(1, (1,) * (1 << n))
            blocks = [form.successors(j) for j in range(1, (1 << m) + 1)]
            assert sum(blocks, ()) == form.L.col_index, k
            for j, block in enumerate(blocks, start=1):
                for a in range(1, (1 << n) + 1):
                    assert block[a - 1] == _simulate(model, j, a), k
            for e in model.updates + model.output_maps:
                kinds |= _node_types(e)
            shapes.add((n + m, m == 0, p == 0))
        assert kinds == {netlang.Const, netlang.Var, netlang.Not, netlang.And, netlang.Or,
                         netlang.Xor, netlang.Implies, netlang.Iff}
        assert max(size for size, _, _ in shapes) == 10
        assert any(no_inputs for _, no_inputs, _ in shapes)
        assert any(no_outputs for _, _, no_outputs in shapes)
