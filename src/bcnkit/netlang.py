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

import re
from collections.abc import Iterator, Mapping

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


Expr = Const | Var | Not | And | Or | Xor | Implies | Iff

#: The binary operators: token -> (node class, level, right-associative).
#: A higher level binds tighter, and ``!`` binds tighter than every level
#: here.  The parser and `pretty` both take precedence and associativity
#: from this table.
_OPERATORS = {
    "<->": (Iff, 1, False),
    "->": (Implies, 2, True),
    "|": (Or, 3, False),
    "^": (Xor, 4, False),
    "&": (And, 5, False),
}
_SYMBOLS = {cls: (tok, level, rassoc) for tok, (cls, level, rassoc) in _OPERATORS.items()}
_NOT_LEVEL, _ATOM_LEVEL = 6, 7  # above every binary level


def postorder(e: Expr) -> Iterator[Expr]:
    """Yield every node of e after its operands, left operand first.

    The walk keeps an explicit stack, so expression depth is not bound
    by the recursion limit.  Raises TypeError on a non-node.
    """
    todo = [(e, False)]
    while todo:
        node, ready = todo.pop()
        kind = type(node)
        if ready or kind is Var or kind is Const:
            yield node
        elif kind is Not:
            todo += ((node, True), (node.operand, False))
        elif kind in _SYMBOLS:
            todo += ((node, True), (node.right, False), (node.left, False))
        else:
            raise TypeError(f"not an expression node: {node!r}")


#: The oracle's operator semantics, apart from the compiler's bit-sliced ones.
_EVAL = {
    And: lambda a, b: a & b,
    Or: lambda a, b: a | b,
    Xor: lambda a, b: a ^ b,
    Implies: lambda a, b: (1 - a) | b,
    Iff: lambda a, b: 1 - (a ^ b),
}


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    """Evaluate under an assignment of {0,1} to variables."""
    values: list[int] = []
    for node in postorder(e):
        kind = type(node)
        if kind is Var:
            try:
                values.append(env[node.name])
            except KeyError:
                raise UnboundVariable(node.name) from None
        elif kind is Const:
            values.append(node.value)
        elif kind is Not:
            values.append(1 - values.pop())
        else:
            b = values.pop()
            values.append(_EVAL[kind](values.pop(), b))
    return values.pop()


def pretty(e: Expr) -> str:
    """Render with minimal parentheses; re-parsing yields the same AST."""
    done: list[tuple[str, int]] = []  # (text, level) of each finished operand

    def operand(min_level: int) -> str:
        text, level = done.pop()
        return text if level >= min_level else f"({text})"

    for node in postorder(e):
        kind = type(node)
        if kind is Var:
            done.append((node.name, _ATOM_LEVEL))
        elif kind is Const:
            done.append((str(node.value), _ATOM_LEVEL))
        elif kind is Not:
            done.append(("!" + operand(_NOT_LEVEL), _NOT_LEVEL))
        else:
            tok, level, rassoc = _SYMBOLS[kind]
            # The operand on the associative side may sit at the same level.
            right = operand(level if rassoc else level + 1)
            left = operand(level + 1 if rassoc else level)
            done.append((f"{left} {tok} {right}", level))
    return done.pop()[0]


# -- lexer ---------------------------------------------------------------

#: One token after optional blanks: a bit (0 or 1 before no word character),
#: a word (`\w` is `str.isalnum` or "_"; it is a name only if it starts with
#: a letter or "_", as `\w` also takes numerals such as "²"), an operator of
#: `_OPERATORS`, longest first, punctuation, a comment or any other character.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<bit>[01](?!\w))|(?P<name>\w+)|(?P<punct>"
    + "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
    + r"|[!(),:'=])|(?P<comment>#)|(?P<bad>[^ \t\r]))")


class _Tok(Record):
    __slots__ = ("kind", "text", "col")
    kind: str  # 'name', 'bit' or a punctuation literal
    text: str
    col: int


def _lex_line(text: str, line_no: int) -> list[_Tok]:
    toks = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, col = match[kind], match.start(kind) + 1
        if kind == "comment":
            break
        if kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise NetworkParseError(f"unexpected character {word[0]!r}", line_no, col)
        toks.append(_Tok(word if kind == "punct" else kind, word, col))
    return toks


# -- expression parser (operator precedence) ------------------------------


def _parse_tokens(toks: list[_Tok], line: int) -> tuple[Expr, set[str]]:
    """Parse one expression from its tokens with an operand stack and an
    operator stack; also return the set of variable names it reads."""
    operands: list[Expr] = []
    ops: list[str] = []  # '!', '(' and binary operator tokens waiting
    names: set[str] = set()
    depth = 0  # '(' on ops

    def reduce(min_level: int) -> None:
        # Apply the waiting binary operators of at least min_level.
        while ops and ops[-1] in _OPERATORS and _OPERATORS[ops[-1]][1] >= min_level:
            cls = _OPERATORS[ops.pop()][0]
            b = operands.pop()
            operands.append(cls(operands.pop(), b))

    want_operand = True
    for t in toks:
        if want_operand:
            if t.kind in ("!", "("):
                depth += t.kind == "("
                ops.append(t.kind)
                continue
            if t.kind == "bit":
                operands.append(Const(int(t.text)))
            elif t.kind == "name":
                names.add(t.text)
                operands.append(Var(t.text))
            else:
                raise NetworkParseError(f"unexpected token {t.text!r}", line, t.col)
        elif t.kind in _OPERATORS:
            _, level, rassoc = _OPERATORS[t.kind]
            # An operator of the same level waits only if right-associative.
            reduce(level + rassoc)
            ops.append(t.kind)
            want_operand = True
            continue
        elif t.kind == ")" and depth:
            reduce(0)
            ops.pop()
            depth -= 1
        elif depth:
            raise NetworkParseError(f"expected ')', got {t.text!r}", line, t.col)
        else:
            raise NetworkParseError(f"trailing input {t.text!r}", line, t.col)
        # An operand is complete: apply the '!'s written before it.
        while ops and ops[-1] == "!":
            ops.pop()
            operands.append(Not(operands.pop()))
        want_operand = False
    if want_operand:
        raise NetworkParseError("unexpected end of expression", line, 0)
    if depth:
        raise NetworkParseError("expected ')', got 'end of line'", line, 0)
    reduce(0)
    return operands.pop(), names


def parse_expr(text: str, line_no: int = 1) -> Expr:
    return _parse_tokens(_lex_line(text, line_no), line_no)[0]


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
                raise NetworkParseError(f"expected identifier, got {t.text!r}", line, t.col)
            names.append(t.text)
        else:
            if t.kind != ",":
                raise NetworkParseError(f"expected ',', got {t.text!r}", line, t.col)
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
            expr, names = _parse_tokens(toks[3:], no)
            for v in sorted(names):
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
            expr, names = _parse_tokens(toks[2:], no)
            for v in sorted(names):
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
