import random
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcnkit.netlang import (
    _lex_line,
    And,
    Const,
    Iff,
    Implies,
    NetworkModel,
    NetworkParseError,
    Not,
    Or,
    Var,
    Xor,
    format_network,
    parse_expr,
    parse_network,
    postorder,
    pretty,
)
from bcnkit.oracle import UnboundVariable, eval_expr, random_model

TOY = """\
network toy
states: x1, x2
inputs: u1, u2
outputs: y1
x1' = (x1 <-> x2) | u1
x2' = !x1 & u2
y1 = x1 & x2
"""

LAC = """\
network lac
states: x1, x2, x3
inputs: u1, u2, u3
x1' = !u1 & (x2 | x3)
x2' = !u1 & u2 & x1
x3' = !u1 & (u2 | (u3 & x1))
"""


def exprs():
    leaves = st.one_of(
        st.builds(Const, st.integers(0, 1)),
        st.builds(Var, st.sampled_from(["a", "b", "c", "x1"])),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Xor, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=25,
    )


class TestExprParsing:
    def test_precedence_chain(self):
        # ! binds tightest, then &, ^, |, ->, <->
        e = parse_expr("!a & b ^ c | d -> e <-> f")
        assert e == Iff(Implies(Or(Xor(And(Not(Var("a")), Var("b")), Var("c")), Var("d")), Var("e")), Var("f"))

    def test_implies_right_associative(self):
        assert parse_expr("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_and_left_associative(self):
        assert parse_expr("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))

    def test_parens(self):
        assert parse_expr("a & (b | c)") == And(Var("a"), Or(Var("b"), Var("c")))

    def test_constants(self):
        assert parse_expr("(1 <-> 1) | 0") == Or(Iff(Const(1), Const(1)), Const(0))

    def test_syntax_error_reports_position(self):
        with pytest.raises(NetworkParseError) as exc:
            parse_expr("a & & b")
        assert exc.value.line == 1 and exc.value.col == 5

    def test_lexical_error(self):
        with pytest.raises(NetworkParseError):
            parse_expr("a @ b")

    @pytest.mark.parametrize("text, error", [
        ("", "line 4, col 0: unexpected end of expression"),
        ("a &", "line 4, col 0: unexpected end of expression"),
        ("!", "line 4, col 0: unexpected end of expression"),
        ("(a", "line 4, col 0: expected ')', got 'end of line'"),
        ("a <-> (b ^ c", "line 4, col 0: expected ')', got 'end of line'"),
        ("(a b", "line 4, col 4: expected ')', got 'b'"),
        ("a)", "line 4, col 2: trailing input ')'"),
        ("a b", "line 4, col 3: trailing input 'b'"),
        ("a = b", "line 4, col 3: trailing input '='"),
        ("!(a & b) c", "line 4, col 10: trailing input 'c'"),
        (")", "line 4, col 1: unexpected token ')'"),
        ("()", "line 4, col 2: unexpected token ')'"),
        ("a -> -> b", "line 4, col 6: unexpected token '->'"),
        ("(a & (b | !))", "line 4, col 12: unexpected token ')'"),
    ])
    def test_syntax_error_text(self, text, error):
        with pytest.raises(NetworkParseError) as info:
            parse_expr(text, 4)
        assert str(info.value) == error


class TestEval:
    def test_iff_or(self):
        assert eval_expr(parse_expr("(1 <-> 1) | 0"), {}) == 1

    def test_not_and(self):
        assert eval_expr(parse_expr("!1 & 1"), {}) == 0

    def test_lac_update_instance(self):
        e = parse_expr("!u1 & (u2 | (u3 & x1))")
        assert eval_expr(e, {"u1": 0, "u2": 1, "u3": 1, "x1": 1}) == 1

    def test_implication_truth_table(self):
        e = parse_expr("a -> b")
        assert [eval_expr(e, {"a": a, "b": b}) for a in (0, 1) for b in (0, 1)] == [1, 1, 0, 1]

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_expr(parse_expr("a & b"), {"a": 1})

    def test_updates_total_over_all_assignments(self):
        model = parse_network(TOY)
        names = model.states + model.inputs
        for v in range(1 << len(names)):
            env = {nm: (v >> i) & 1 for i, nm in enumerate(names)}
            for f in model.updates:
                assert eval_expr(f, env) in (0, 1)


class TestPretty:
    @given(exprs())
    def test_round_trip(self, e):
        assert parse_expr(pretty(e)) == e

    def test_minimal_parens(self):
        assert pretty(parse_expr("a & (b | c)")) == "a & (b | c)"
        assert pretty(parse_expr("(a & b) | c")) == "a & b | c"
        assert pretty(parse_expr("a -> (b -> c)")) == "a -> b -> c"
        assert pretty(parse_expr("(a -> b) -> c")) == "(a -> b) -> c"


class TestPostorder:
    def test_node_order(self):
        # Operands before their operator, left operand first.
        e = parse_expr("!a & (b -> 1) | c")
        assert [pretty(node) for node in postorder(e)] == [
            "a", "!a", "b", "1", "b -> 1", "!a & (b -> 1)", "c", "!a & (b -> 1) | c",
        ]

    def test_rejects_a_non_node(self):
        with pytest.raises(TypeError, match="not an expression node: 5"):
            list(postorder(And(Var("a"), Not(5))))


class TestDeepExpressions:
    """Rules deeper than the recursion limit.  Deep ASTs are compared as
    text, because record equality still recurses."""

    CHAINS = {
        "left-and": (lambda e: And(e, Var("x1")), " & ".join(["x1"] * 5001), (0, 1)),
        "right-implies": (lambda e: Implies(Var("x1"), e), " -> ".join(["x1"] * 5001), (1, 1)),
        "negations": (Not, "!" * 5000 + "x1", (0, 1)),
    }

    @pytest.mark.parametrize("grow, text, values", CHAINS.values(), ids=CHAINS)
    def test_format_round_trip(self, grow, text, values):
        e = Var("x1")
        for _ in range(5000):
            e = grow(e)
        model = NetworkModel("deep", ("x1",), (), (), (e,), ())
        source = format_network(model)
        assert source == f"network deep\nstates: x1\nx1' = {text}\n"
        assert format_network(parse_network(source)) == source
        assert (eval_expr(e, {"x1": 0}), eval_expr(e, {"x1": 1})) == values

    def test_nested_parentheses(self):
        assert parse_expr("(" * 5000 + "x1" + ")" * 5000) == Var("x1")


class TestNetworkParsing:
    def test_toy_network(self):
        model = parse_network(TOY)
        assert model.name == "toy"
        assert (model.n, model.m, model.p) == (2, 2, 1)
        assert model.updates[0] == Or(Iff(Var("x1"), Var("x2")), Var("u1"))
        assert model.output_maps[0] == And(Var("x1"), Var("x2"))

    def test_lac_network(self):
        model = parse_network(LAC)
        assert (model.n, model.m, model.p) == (3, 3, 0)

    def test_output_referencing_input_rejected(self):
        bad = "network b\nstates: x1\ninputs: u1\noutputs: y1\nx1' = x1\ny1 = u1\n"
        with pytest.raises(NetworkParseError, match="references input"):
            parse_network(bad)

    def test_unknown_variable_rejected(self):
        bad = "network b\nstates: x1\nx1' = x9\n"
        with pytest.raises(NetworkParseError, match="unknown variable"):
            parse_network(bad)

    @pytest.mark.parametrize("rules, error", [
        (["x1' = zz & x1 | bb ^ aa", "y1 = x1"], "line 5, col 1: unknown variable 'aa' in update rule"),
        (["x1' = x1", "y1 = x1 -> q2 & q1"], "line 6, col 1: unknown variable 'q1' in output rule"),
        (["x1' = x1", "y1 = zz | u1 & x1"], "line 6, col 1: output 'y1' references input 'u1'"),
        (["x1' = x1", "y1 = u1 | aa & x1"], "line 6, col 1: unknown variable 'aa' in output rule"),
    ])
    def test_first_bad_name_in_a_rule_reported(self, rules, error):
        # Of several bad names in one rule, the error names the first in
        # sorted order, whether it is unknown or an input.
        text = "network b\nstates: x1\ninputs: u1\noutputs: y1\n" + "\n".join(rules) + "\n"
        with pytest.raises(NetworkParseError) as info:
            parse_network(text)
        assert str(info.value) == error

    HEAD = "network b\nstates: x1, x2\ninputs: u1\noutputs: y1\n"
    # Each check's exact message, line and column, for both rule kinds, and
    # a repeated name reported where it repeats.
    RULE_ERRORS = [
        (HEAD + "x9' = x1\n", "line 5, col 1: 'x9' is not a declared state"),
        (HEAD + "u1' = x1\n", "line 5, col 1: 'u1' is not a declared state"),
        (HEAD + "y1' = x1\n", "line 5, col 1: 'y1' is not a declared state"),
        (HEAD + "  y9 = x1\n", "line 5, col 3: 'y9' is not a declared output"),
        (HEAD + "u1 = x1\n", "line 5, col 1: 'u1' is not a declared output"),
        (HEAD + "x2 = x1\n", "line 5, col 1: 'x2' is not a state (missing ' ?)"),
        (HEAD + "x1' = x1\nx1' = !x1\n", "line 6, col 1: duplicate update rule for 'x1'"),
        (HEAD + "y1 = x1\ny1 = !x1\n", "line 6, col 1: duplicate output rule for 'y1'"),
        (HEAD + "x1' = x1\nx1' x1\n", "line 6, col 1: duplicate update rule for 'x1'"),
        (HEAD + "x1' x1\n", "line 5, col 1: expected '=' in update rule"),
        (HEAD + "x1'\n", "line 5, col 1: expected '=' in update rule"),
        (HEAD + "y1 x1\n", "line 5, col 1: expected '=' in output rule"),
        (HEAD + "y1\n", "line 5, col 1: expected '=' in output rule"),
        (HEAD + "x1' = = x1\n", "line 5, col 7: unexpected token '='"),
        (HEAD + "x1' = x9 &\n", "line 5, col 0: unexpected end of expression"),
        (HEAD + "x1' = x9 | y1\n", "line 5, col 1: unknown variable 'x9' in update rule"),
        (HEAD + "x1' = y1 & u1\n", "line 5, col 1: unknown variable 'y1' in update rule"),
        (HEAD + "y1 = x9\n", "line 5, col 1: unknown variable 'x9' in output rule"),
        (HEAD + "y1 = y1\n", "line 5, col 1: unknown variable 'y1' in output rule"),
        (HEAD + "y1 = u1\n", "line 5, col 1: output 'y1' references input 'u1'"),
        (HEAD + "y1 = zz & u1\n", "line 5, col 1: output 'y1' references input 'u1'"),
        (HEAD + "x1' = x1\n", "line 5, col 1: missing update rule for 'x2'"),
        (HEAD + "x1' = x1\ny1 = x1\n# end\n\n", "line 6, col 1: missing update rule for 'x2'"),
        (HEAD + "x1' = x1\nx2' = x1\n", "line 6, col 1: missing output rule for 'y1'"),
        (HEAD + "y1 = x1\nx2' = x1\n", "line 6, col 1: missing update rule for 'x1'"),
        ("network t\nstates: x, y\ninputs: u, x\nx' = x\ny' = y\n",
         "line 3, col 12: duplicate variable name 'x'"),
        ("# a model\n\nnetwork t\nstates: x, y, x\nx' = x\ny' = y\n",
         "line 4, col 15: duplicate variable name 'x'"),
        ("network t\nstates: x\ninputs: u\noutputs: x, u\nx' = x\n",
         "line 4, col 10: duplicate variable name 'x'"),
        ("network t\nstates: x, x\ninputs: u,\nx' = x\n", "line 3, col 0: trailing comma"),
        ("network t\nstates: x, x\noutputs y\nx' = x\n", "line 3, col 1: expected ':' after 'outputs'"),
    ]

    @pytest.mark.parametrize("text, error", RULE_ERRORS, ids=[error for _, error in RULE_ERRORS])
    def test_rule_check_messages(self, text, error):
        with pytest.raises(NetworkParseError) as info:
            parse_network(text)
        assert str(info.value) == error

    def test_duplicate_rule_rejected(self):
        bad = "network b\nstates: x1\nx1' = x1\nx1' = !x1\n"
        with pytest.raises(NetworkParseError, match="duplicate update"):
            parse_network(bad)

    def test_missing_rule_rejected(self):
        bad = "network b\nstates: x1, x2\nx1' = x1\n"
        with pytest.raises(NetworkParseError, match="missing update"):
            parse_network(bad)

    def test_duplicate_name_rejected(self):
        bad = "network b\nstates: x1\ninputs: x1\nx1' = x1\n"
        with pytest.raises(NetworkParseError, match="duplicate variable"):
            parse_network(bad)

    def test_autonomous_and_outputless_models_legal(self):
        model = parse_network("network a\nstates: x1\nx1' = !x1\n")
        assert (model.m, model.p) == (0, 0)

    def test_comments_and_blank_lines(self):
        text = "# heading\nnetwork c\n\nstates: x1  # the only state\nx1' = x1\n"
        assert parse_network(text).name == "c"

    def test_error_carries_line_number(self):
        with pytest.raises(NetworkParseError) as exc:
            parse_network("network b\nstates: x1\nx1' = x1 &\n")
        assert exc.value.line == 3

    def test_format_round_trip(self):
        model = parse_network(TOY)
        assert parse_network(format_network(model)) == model


class TestParserFuzz:
    """Single-character edits of valid model texts: every edited text
    either parses or raises NetworkParseError, and nothing else.  The
    alphabet holds the language's own characters plus line breaks that
    `str.splitlines` honours, a tab, a stray symbol and non-ASCII
    letters and digits."""

    ALPHABET = "x1u2y0_'=:,!&^|()<-># \t\r\x0c\n@\u00e9\u00b2"
    MODELS = 6
    EDITS = 2000

    def test_single_character_edits(self):
        rng = random.Random(2024)
        parsed = 0
        for k in range(self.MODELS):
            model = random_model(rng, rng.randint(1, 3), rng.randint(0, 2),
                                 rng.randint(0, 2), name=f"f{k}", depth=3)
            text = format_network(model)
            assert parse_network(text) == model
            for _ in range(self.EDITS):
                i = rng.randrange(len(text))
                op = rng.randrange(3)
                ch = rng.choice(self.ALPHABET)
                if op == 0:
                    edited = text[:i] + text[i + 1:]
                elif op == 1:
                    edited = text[:i] + ch + text[i:]
                else:
                    edited = text[:i] + ch + text[i + 1:]
                try:
                    again = parse_network(edited)
                except NetworkParseError:
                    continue
                parsed += 1
                assert parse_network(format_network(again)) == again
        # Both outcomes occur, so the edits reach past the first token.
        assert 0 < parsed < self.MODELS * self.EDITS


# The character-by-character lexer that the token pattern replaced, kept
# verbatim as the reference of `TestLexerReference`, with a plain tuple for
# its tokens.
_PUNCT = ("<->", "->", "!", "&", "^", "|", "(", ")", ",", ":", "'", "=")
_Tok = namedtuple("_Tok", "kind text line col")


def _reference_lex_line(text: str, line_no: int) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line_no, col))
            i = j
            continue
        if ch in "01" and not (i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_")):
            toks.append(_Tok("bit", ch, line_no, col))
            i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(_Tok(p, p, line_no, col))
                i += len(p)
                break
        else:
            raise NetworkParseError(f"unexpected character {ch!r}", line_no, col)
    return toks


class TestLexerReference:
    """The token pattern reads every line as the character-by-character
    lexer did: the same (kind, text, col) tokens, or the same error.  The
    characters add to the fuzz alphabet letters and numerals past ASCII
    (`\\w` takes "²", "½" and "Ⅷ", which `str.isalpha` rejects), a
    combining accent and non-ASCII spaces; whole operators and bits make
    longer token runs likely."""

    CHARS = TestParserFuzz.ALPHABET + "\u00e9\u03a9\u00aa\u0663\u00b2\u00bd\u2167\u0301\u00a0\u2003\u3000"
    UNITS = [*CHARS, "<->", "->", "x1", "0 ", "1)"]
    LINES = 12_000

    @staticmethod
    def _lexed(lex, text):
        try:
            return [(t.kind, t.text, t.col) for t in lex(text, 7)]
        except NetworkParseError as e:
            return e.message, e.line, e.col

    def test_same_tokens_and_errors(self):
        rng = random.Random(20)
        errors = 0
        for _ in range(self.LINES):
            text = "".join(rng.choice(self.UNITS) for _ in range(rng.randint(0, 14)))
            expected = self._lexed(_reference_lex_line, text)
            assert self._lexed(_lex_line, text) == expected, text
            errors += isinstance(expected, tuple)
        # Both outcomes occur often.
        assert self.LINES // 10 < errors < self.LINES * 9 // 10
