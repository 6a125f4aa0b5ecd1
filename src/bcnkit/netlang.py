"""Parser for the ``.bcn`` Boolean-network language.

A model file looks like::

    network toy
    states: x1, x2
    inputs: u1, u2      # optional, may be empty
    outputs: y1         # optional
    x1' = (x1 <-> x2) | u1
    x2' = !x1 & u2
    y1 = x1 & x2

``#`` starts a comment running to end of line.  Update rules (marked by
the prime) may reference states and inputs; output rules may reference
states only.  Operator precedence, tightest first:
``!``, ``&``, ``^``, ``|``, ``->`` (right-associative), ``<->``.
"""

from __future__ import annotations

from typing import Mapping, Union

from .record import Record


class NetworkParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UnboundVariable(Exception):
    pass


# -- expression AST ----------------------------------------------------


class Const(Record):
    __slots__ = ("value",)
    value: int


class Var(Record):
    __slots__ = ("name",)
    name: str


class Not(Record):
    __slots__ = ("operand",)
    operand: "Expr"


class And(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


class Or(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


class Xor(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


class Implies(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


class Iff(Record):
    __slots__ = ("left", "right")
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Not, And, Or, Xor, Implies, Iff]


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    """Evaluate under an assignment of {0,1} to variables."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Not):
        return 1 - eval_expr(e.operand, env)
    a = eval_expr(e.left, env)
    b = eval_expr(e.right, env)
    if isinstance(e, And):
        return a & b
    if isinstance(e, Or):
        return a | b
    if isinstance(e, Xor):
        return a ^ b
    if isinstance(e, Implies):
        return (1 - a) | b
    if isinstance(e, Iff):
        return 1 - (a ^ b)
    raise TypeError(f"not an expression node: {e!r}")


# Precedence levels; higher binds tighter.
_LEVEL = {Iff: 1, Implies: 2, Or: 3, Xor: 4, And: 5, Not: 6, Var: 7, Const: 7}
_OPSYM = {Iff: "<->", Implies: "->", Or: "|", Xor: "^", And: "&"}


def pretty(e: Expr) -> str:
    """Render with minimal parentheses; re-parsing yields the same AST."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Not):
        return "!" + _wrap(e.operand, _LEVEL[Not])
    lvl = _LEVEL[type(e)]
    # -> is right-associative; the other binary ops are parsed left-associative.
    if isinstance(e, Implies):
        left = _wrap(e.left, lvl + 1)
        right = _wrap(e.right, lvl)
    else:
        left = _wrap(e.left, lvl)
        right = _wrap(e.right, lvl + 1)
    return f"{left} {_OPSYM[type(e)]} {right}"


def _wrap(e: Expr, min_level: int) -> str:
    s = pretty(e)
    return s if _LEVEL[type(e)] >= min_level else f"({s})"


# -- lexer ---------------------------------------------------------------

_PUNCT = ("<->", "->", "!", "&", "^", "|", "(", ")", ",", ":", "'", "=")


class _Tok(Record):
    __slots__ = ("kind", "text", "line", "col")
    kind: str  # 'name', 'bit', punctuation literal, or 'eof'
    text: str
    line: int
    col: int


def _lex_line(text: str, line_no: int) -> list[_Tok]:
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


# -- expression parser (recursive descent) -------------------------------


class _ExprParser:
    """One expression's parser; `names` collects every variable it reads."""

    def __init__(self, toks: list[_Tok], line: int):
        self.toks = toks
        self.pos = 0
        self.line = line
        self.names: set[str] = set()

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise NetworkParseError("unexpected end of expression", self.line, 0)
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t is None or t.kind != kind:
            got = t.text if t else "end of line"
            raise NetworkParseError(
                f"expected {kind!r}, got {got!r}", self.line, t.col if t else 0
            )
        return self.take()

    def parse(self) -> Expr:
        e = self.iff()
        t = self.peek()
        if t is not None:
            raise NetworkParseError(f"trailing input {t.text!r}", t.line, t.col)
        return e

    def iff(self) -> Expr:
        e = self.implies()
        while (t := self.peek()) and t.kind == "<->":
            self.take()
            e = Iff(e, self.implies())
        return e

    def implies(self) -> Expr:
        e = self.disj()
        if (t := self.peek()) and t.kind == "->":
            self.take()
            return Implies(e, self.implies())
        return e

    def disj(self) -> Expr:
        e = self.xor()
        while (t := self.peek()) and t.kind == "|":
            self.take()
            e = Or(e, self.xor())
        return e

    def xor(self) -> Expr:
        e = self.conj()
        while (t := self.peek()) and t.kind == "^":
            self.take()
            e = Xor(e, self.conj())
        return e

    def conj(self) -> Expr:
        e = self.unary()
        while (t := self.peek()) and t.kind == "&":
            self.take()
            e = And(e, self.unary())
        return e

    def unary(self) -> Expr:
        t = self.take()
        if t.kind == "!":
            return Not(self.unary())
        if t.kind == "(":
            e = self.iff()
            self.expect(")")
            return e
        if t.kind == "bit":
            return Const(int(t.text))
        if t.kind == "name":
            self.names.add(t.text)
            return Var(t.text)
        raise NetworkParseError(f"unexpected token {t.text!r}", t.line, t.col)


def parse_expr(text: str, line_no: int = 1) -> Expr:
    return _ExprParser(_lex_line(text, line_no), line_no).parse()


# -- network model ---------------------------------------------------------


class NetworkModel(Record):
    __slots__ = ("name", "states", "inputs", "outputs", "updates", "output_maps")
    name: str
    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    updates: tuple[Expr, ...]      # aligned with states
    output_maps: tuple[Expr, ...]  # aligned with outputs

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    @property
    def p(self) -> int:
        return len(self.outputs)


def _split_names(toks: list[_Tok], line: int) -> list[str]:
    names = []
    expect_name = True
    for t in toks:
        if expect_name:
            if t.kind != "name":
                raise NetworkParseError(f"expected identifier, got {t.text!r}", t.line, t.col)
            names.append(t.text)
        else:
            if t.kind != ",":
                raise NetworkParseError(f"expected ',', got {t.text!r}", t.line, t.col)
        expect_name = not expect_name
    if expect_name and names:
        raise NetworkParseError("trailing comma", line, 0)
    return names


def parse_network(text: str) -> NetworkModel:
    """Parse and validate a full ``.bcn`` source."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = _lex_line(raw, no)
        if toks:
            lines.append((no, toks))
    if not lines:
        raise NetworkParseError("empty model", 1, 1)

    pos = 0

    def header(keyword: str, required: bool) -> list[str]:
        nonlocal pos
        if pos < len(lines):
            no, toks = lines[pos]
            if toks[0].kind == "name" and toks[0].text == keyword:
                if len(toks) < 2 or toks[1].kind != ":":
                    raise NetworkParseError(f"expected ':' after {keyword!r}", no, toks[0].col)
                pos += 1
                return _split_names(toks[2:], no)
        if required:
            no = lines[pos][0] if pos < len(lines) else lines[-1][0]
            raise NetworkParseError(f"missing {keyword!r} section", no, 1)
        return []

    no, toks = lines[pos]
    if toks[0].kind != "name" or toks[0].text != "network" or len(toks) != 2 or toks[1].kind != "name":
        raise NetworkParseError("expected 'network <id>' header", no, toks[0].col)
    net_name = toks[1].text
    pos += 1

    states = header("states", required=True)
    inputs = header("inputs", required=False)
    outputs = header("outputs", required=False)

    all_names = states + inputs + outputs
    seen: dict[str, None] = {}
    for nm in all_names:
        if nm in seen:
            raise NetworkParseError(f"duplicate variable name {nm!r}", lines[0][0], 1)
        seen[nm] = None

    updates: dict[str, Expr] = {}
    out_maps: dict[str, Expr] = {}
    state_set = set(states)
    input_set = set(inputs)
    output_set = set(outputs)

    for no, toks in lines[pos:]:
        if toks[0].kind != "name":
            raise NetworkParseError(f"expected a rule, got {toks[0].text!r}", no, toks[0].col)
        target = toks[0].text
        if len(toks) >= 2 and toks[1].kind == "'":
            if target not in state_set:
                raise NetworkParseError(f"{target!r} is not a declared state", no, toks[0].col)
            if target in updates:
                raise NetworkParseError(f"duplicate update rule for {target!r}", no, toks[0].col)
            if len(toks) < 3 or toks[2].kind != "=":
                raise NetworkParseError("expected '=' in update rule", no, toks[0].col)
            parser = _ExprParser(toks[3:], no)
            expr = parser.parse()
            for v in sorted(parser.names):
                if v not in state_set and v not in input_set:
                    raise NetworkParseError(f"unknown variable {v!r} in update rule", no, toks[0].col)
            updates[target] = expr
        else:
            if target not in output_set:
                kind = "state (missing ' ?)" if target in state_set else "declared output"
                raise NetworkParseError(f"{target!r} is not a {kind}", no, toks[0].col)
            if target in out_maps:
                raise NetworkParseError(f"duplicate output rule for {target!r}", no, toks[0].col)
            if len(toks) < 2 or toks[1].kind != "=":
                raise NetworkParseError("expected '=' in output rule", no, toks[0].col)
            parser = _ExprParser(toks[2:], no)
            expr = parser.parse()
            for v in sorted(parser.names):
                if v in input_set:
                    raise NetworkParseError(
                        f"output {target!r} references input {v!r}", no, toks[0].col
                    )
                if v not in state_set:
                    raise NetworkParseError(f"unknown variable {v!r} in output rule", no, toks[0].col)
            out_maps[target] = expr

    missing = [s for s in states if s not in updates]
    if missing:
        raise NetworkParseError(f"missing update rule for {missing[0]!r}", lines[-1][0], 1)
    missing = [y for y in outputs if y not in out_maps]
    if missing:
        raise NetworkParseError(f"missing output rule for {missing[0]!r}", lines[-1][0], 1)

    return NetworkModel(
        name=net_name,
        states=tuple(states),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        updates=tuple(updates[s] for s in states),
        output_maps=tuple(out_maps[y] for y in outputs),
    )


def format_network(model: NetworkModel) -> str:
    """Emit ``.bcn`` source that parses back to the same model."""
    out = [f"network {model.name}", "states: " + ", ".join(model.states)]
    if model.inputs:
        out.append("inputs: " + ", ".join(model.inputs))
    if model.outputs:
        out.append("outputs: " + ", ".join(model.outputs))
    for s, e in zip(model.states, model.updates):
        out.append(f"{s}' = {pretty(e)}")
    for y, e in zip(model.outputs, model.output_maps):
        out.append(f"{y} = {pretty(e)}")
    return "\n".join(out) + "\n"
