"""Brute-force ground truth, independent of the matrix machinery.

Everything here simulates the model's expression ASTs directly, one
assignment at a time with this module's `eval_expr`, and explores
explicit graphs by breadth-first search.  The compiler tabulates rules
with its own bit-sliced evaluator.  The two share the state index codec,
the `SizeLimitError` type (re-exported here) and the node order of
`netlang.postorder`, but each maps every operator to its own code in a
table beside its engine (`_EVAL` here, `compiler._BINARY` there), so
agreement between them is evidence rather than self-confirmation.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping

from .compiler import SizeLimitError, check_size, decode_state, encode_state
from .netlang import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    NetworkModel,
    Not,
    Or,
    Var,
    Xor,
    postorder,
)


class UnboundVariable(Exception):
    pass


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


def _step(model: NetworkModel, state: int, control: int) -> int:
    env = dict(zip(model.inputs, decode_state(control, model.m)))
    env.update(zip(model.states, decode_state(state, model.n)))
    return encode_state([eval_expr(f, env) for f in model.updates])


def _output(model: NetworkModel, state: int) -> tuple[int, ...]:
    env = dict(zip(model.states, decode_state(state, model.n)))
    return tuple(eval_expr(h, env) for h in model.output_maps)


def transition_graph(model: NetworkModel) -> tuple[tuple[int, ...], ...]:
    """Item a-1 holds the sorted one-step successors of state a over all
    controls, found by simulation."""
    controls = range(1, (1 << model.m) + 1)
    return tuple(
        tuple(sorted({_step(model, a, j) for j in controls})) for a in range(1, (1 << model.n) + 1)
    )


def reach_oracle(model: NetworkModel) -> BooleanMatrix:
    """Entry (i, j) = 1 iff BFS from j reaches i in at least one step."""
    from .boolmat import BooleanMatrix  # loaded here: no other oracle builds a matrix
    check_size(model.n, model.m, model.p, ("reach_oracle",))
    successors = transition_graph(model)
    nn = len(successors)
    bits = [0] * nn
    for j in range(1, nn + 1):
        seen = set()
        queue = deque(successors[j - 1])
        seen.update(queue)
        while queue:
            a = queue.popleft()
            for b in successors[a - 1]:
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        for i in seen:
            bits[i - 1] |= 1 << (j - 1)
    return BooleanMatrix(nn, nn, bits)


def distinguish_distances(model: NetworkModel) -> tuple[tuple[tuple[int, int], int | None], ...]:
    """For each unordered pair z < x with equal current output, the length
    of a shortest shared control sequence after which the two outputs
    differ, or None when none does: a breadth-first search over joint
    states from (z, x), which stops at the first joint state with
    differing outputs, so that state is one of the nearest.  Every
    transition is simulated once, into a table that all the searches
    read.  A search that ends without differing outputs has seen only
    joint states that cannot reach them, so later searches skip those."""
    check_size(model.n, model.m, model.p, ("distinguish_oracle",))
    if model.p == 0:
        raise ValueError("model has no outputs")
    nn = 1 << model.n
    states = range(1, nn + 1)
    # Indexed by 1-based state; item 0 pads.
    table = [[0, *(_step(model, a, j) for a in states)] for j in range(1, (1 << model.m) + 1)]
    out = [None, *(_output(model, a) for a in states)]

    results = []
    dead = set()
    for z in states:
        for x in range(z + 1, nn + 1):
            if out[z] != out[x]:
                continue
            dist = None
            seen = {(z, x)}
            queue = deque((((z, x), 0),))
            while queue and dist is None:
                (a, b), d = queue.popleft()
                for succ in table:
                    nxt = (succ[a], succ[b])
                    if nxt in seen or nxt in dead:
                        continue
                    seen.add(nxt)
                    if out[nxt[0]] != out[nxt[1]]:
                        dist = d + 1
                        break
                    queue.append((nxt, d + 1))
            if dist is None:
                dead |= seen
            results.append(((z, x), dist))
    return tuple(results)


def distinguish_oracle(model: NetworkModel) -> tuple[tuple[tuple[int, int], bool], ...]:
    """For each unordered pair z < x with equal current output, whether
    some shared control sequence drives the two into differing outputs
    (`distinguish_distances` finds a shortest one)."""
    return tuple((pair, d is not None) for pair, d in distinguish_distances(model))


# -- random model generation (for cross-validation runs) ---------------------


def _random_expr(rng: random.Random, variables: tuple[str, ...], depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.85:
            return Var(rng.choice(variables))
        return Const(rng.randint(0, 1))
    op = rng.choice(("not", "and", "or", "xor", "implies", "iff"))
    if op == "not":
        return Not(_random_expr(rng, variables, depth - 1))
    left = _random_expr(rng, variables, depth - 1)
    right = _random_expr(rng, variables, depth - 1)
    return {"and": And, "or": Or, "xor": Xor, "implies": Implies, "iff": Iff}[op](left, right)


def random_model(
    rng: random.Random, n: int, m: int, p: int, name: str = "random", depth: int = 3
) -> NetworkModel:
    """A random network with expression depth <= depth; pass a seeded
    Random for reproducibility."""
    states = tuple(f"x{i}" for i in range(1, n + 1))
    inputs = tuple(f"u{i}" for i in range(1, m + 1))
    outputs = tuple(f"y{i}" for i in range(1, p + 1))
    update_vars = states + inputs
    return NetworkModel(
        name=name,
        states=states,
        inputs=inputs,
        outputs=outputs,
        updates=tuple(_random_expr(rng, update_vars, depth) for _ in states),
        output_maps=tuple(_random_expr(rng, states, depth) for _ in outputs),
    )
