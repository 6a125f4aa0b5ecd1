"""Compilation of a network model to its matrix form.

States, inputs and outputs in vector form identify 1 with the first basis
vector of dimension 2 and 0 with the second; a tuple of k bits encodes
(via the Kronecker product of the per-bit vectors) to a single index in
1..2^k, with the first bit most significant and true sorting first.

Rules are tabulated bit-sliced: over k ordered variables, bit t of a
Python int holds a value at the assignment decoded from column t+1.
Each variable is such a periodic mask, and each rule is evaluated once
with its operators applied as int operations.  The truth tables become
column indices through a digit grid: each column gets one run of binary
digits, one per rule, and reads back with `int(run, 2)`.  No column walks
the AST.
The brute-force oracle evaluates one assignment at a time with
`netlang.eval_expr`.  It shares with this module the state index codec
and the node order of `netlang.postorder`, which both evaluators walk,
but not the operator semantics: each maps every operator to its own code.
"""

from __future__ import annotations

from collections.abc import Sequence

from .boolmat import LogicalMatrix
from .netlang import And, Const, Expr, Iff, Implies, NetworkModel, Not, Or, Var, Xor, postorder
from .record import Record

#: Flat compilation refuses models with more than this many state+input bits,
#: and output controllability models with more outputs (H has 2^p rows).
MAX_FLAT_VARS = 20

#: Runs whose estimated peak memory (`compile_bytes`, `closure_bytes` or
#: `pair_space_bytes`) exceeds this many bytes are refused, half of 8 GiB.
MAX_BYTES = 4 << 30


class SizeLimitError(ValueError):
    """A model exceeds a size limit of the requested analysis (`check_size`)."""


def compile_bytes(columns_log2: int) -> int:
    """Estimated peak memory of compiling 2^(n+m) columns: 16 MiB plus 128 B
    per column.  Fitted to `bcn compile`'s peak RSS on n-bit counters, 21.9,
    45.2, 76.6, 140.2, 264 and 516 MiB at n + m = 16 and 18-22, at most 98%."""
    return (16 << 20) + (128 << columns_log2)


def closure_bytes(n: int, outputs: int = 0, emit: bool = False) -> int:
    """Estimated peak memory of closing the 2^n x 2^n one-step matrix: 24 MiB,
    11/16 byte per entry of C (M, M + I, C and a product's two partial sums
    live at once), 192 B per row of a 2^outputs-row H * C and, with `emit`,
    3 B per entry of the widest printed matrix (2 at n = 13-14, 3 at n = 11-12).
    Fitted to `bcn`'s peak RSS (`os.wait4`): the shift register, whose closure
    rows fill up, peaked at 27, 55, 165 and 598 MiB for n = 12-15, at most 83%."""
    return (24 << 20) + (11 << 2 * n >> 4) + (192 << outputs) + (3 << n + max(n, outputs) if emit else 0)


def pair_space_bytes(n: int, m: int, witness_steps: int = 0) -> int:
    """Estimated peak memory of `observe.observability_verdict` and
    `render_report`: 4^n * (80 * 2^m + 220) bytes for the pair maps,
    distances and pair sets, plus 8 bytes per witness control for the
    witness texts, their lines and the joined report, plus 512 bytes of
    fixed allocations.  Fitted to tracemalloc peaks on 24 seeded random
    models, n = 7-9, m = 0-3, p = 1-2, by least squares (74 * 2^m + 201
    bytes per pair), rounded up so that every measurement was at most 96%
    of the estimate.  Long witnesses grow the text with their total
    length, 8^n on the n-bit counter: at n = 9 the two peak at 130 MB
    against 278 MB.  At n = 1 the peak is 1.5-1.6 KB, up to 368 bytes past
    the other terms on 300 seeded random models with m = 0-3, p = 1-2.
    The 80 * 2^m term was fitted when the verdict held pair maps; now it
    over-estimates: at n = 9, m = 3 five seeded random models peak at
    13-22 MiB (59-101 MiB with pair maps), against an estimate of 225 MB."""
    return (1 << 2 * n) * (80 * (1 << m) + 220) + 8 * witness_steps + 512


def check_size(n: int, m: int, p: int, stages, max_vars: int = MAX_FLAT_VARS,
               witness_steps: int = 0) -> None:
    """Raise the one `SizeLimitError` for the first of the stages, in this
    order, too large for n states, m inputs and p outputs: "compile"
    (n + m <= max_vars and, past MAX_FLAT_VARS, `compile_bytes`), "outputs"
    (p <= 20), "closure" (printing too with "emit"), "pairs", "reach_oracle"
    (n + m <= 12), "distinguish_oracle" (3n + m <= 27, fitted to its
    2^(3n+m) steps on the n-bit counter), "dense_row" (2n <= 12).  Only
    `witness_steps` needs work."""
    if "compile" in stages and n + m > max_vars:
        text = f"model has {n + m} state+input variables; flat compilation is limited to {max_vars}"
    elif "compile" in stages and n + m > MAX_FLAT_VARS and (need := compile_bytes(n + m)) > MAX_BYTES:
        text = f"flat compilation of 2^{n + m} columns {_needs(need)}"
    elif "outputs" in stages and p > MAX_FLAT_VARS:
        text = f"model has {p} outputs; output controllability is limited to {MAX_FLAT_VARS}"
    elif "closure" in stages and (
            need := closure_bytes(n, p if "outputs" in stages else 0, "emit" in stages)) > MAX_BYTES:
        printed = "printed " if "emit" in stages else ""
        text = f"{printed}dense closure over 2^{n} states {_needs(need)}"
    elif "pairs" in stages and (need := pair_space_bytes(n, m, witness_steps)) > MAX_BYTES:
        text = f"pair space of 2^{2 * n} pairs under 2^{m} controls {_needs(need)}"
    elif "reach_oracle" in stages and n + m > 12:
        text = "reach oracle is limited to n+m <= 12"
    elif "distinguish_oracle" in stages and 3 * n + m > 27:
        text = "distinguishability oracle is limited to 3n+m <= 27"
    elif "dense_row" in stages and 2 * n > 12:
        text = "dense pair-space closure is limited to 2n <= 12"
    else:
        return
    raise SizeLimitError(text)


def _needs(need: int) -> str:
    """The tail of a byte-budget refusal.  The estimate is given by its
    leading power of two: printed in full, its digits grow with n and m
    past the one short line a refusal is, and past 2^1024 it has no float."""
    return f"needs an estimated 2^{need.bit_length() - 1}+ bytes; limit is {MAX_BYTES:,}"


def encode_state(bits: Sequence[int]) -> int:
    """Index in 1..2^k of the basis vector encoding the bit tuple."""
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"entry {b!r} is not a bit")
        idx = (idx << 1) | (1 - b)
    return idx + 1


def decode_state(index: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_state`."""
    if not 1 <= index <= (1 << k):
        raise IndexError(f"index {index} outside 1..2^{k}")
    v = index - 1
    return tuple(1 - ((v >> (k - 1 - i)) & 1) for i in range(k))


_BINARY = {
    And: lambda a, b, full: a & b,
    Or: lambda a, b, full: a | b,
    Xor: lambda a, b, full: a ^ b,
    Implies: lambda a, b, full: (full ^ a) | b,
    Iff: lambda a, b, full: full ^ a ^ b,
}


def _variable_masks(variables: Sequence[str], width: int) -> dict[str, int]:
    """Truth table of each variable over the width = 2^k columns.

    Variable i is true where bit k-1-i of the 0-based column is 0: a run
    of 2^(k-1-i) ones, then as many zeros, repeated.  The repetition is
    built by doubling, which costs O(width) bits per variable.
    """
    k = len(variables)
    masks = {}
    for i, name in enumerate(variables):
        run = 1 << (k - 1 - i)
        mask = (1 << run) - 1
        period = 2 * run
        while period < width:
            mask |= mask << period
            period *= 2
        masks[name] = mask
    return masks


def _truth_table(e: Expr, masks: dict[str, int], full: int, unknown: set[str]) -> int:
    """Evaluate e over all columns at once.  Variables missing from masks
    are added to unknown."""
    values: list[int] = []
    for node in postorder(e):
        kind = type(node)
        if kind is Var:
            if node.name not in masks:
                unknown.add(node.name)
            values.append(masks.get(node.name, 0))
        elif kind is Const:
            values.append(full if node.value else 0)
        elif kind is Not:
            values.append(full ^ values.pop())
        else:
            b = values.pop()
            values.append(_BINARY[kind](values.pop(), b, full))
    return values.pop()


def _columns(exprs: Sequence[Expr], variables: Sequence[str]) -> tuple[int, ...]:
    """Column indices of the 2^r x 2^k logical matrix sending each
    assignment of the k ordered variables to the tuple of the r
    expression values (first expression most significant)."""
    width = 1 << len(variables)
    full = (1 << width) - 1
    masks = _variable_masks(variables, width)
    unknown: set[str] = set()
    tables = [_truth_table(e, masks, full, unknown) for e in exprs]
    if unknown:
        raise ValueError(f"unbound variables {sorted(unknown)}")

    # Column t's index minus 1, in binary, has one digit per rule, first
    # rule first, which is 1 where that rule is false at t.  The grid is
    # column-major: column t's digits are one run of r + 1 ASCII digits,
    # behind a leading 0 so that r = 0 still reads as index 1.  format()
    # prints the highest column first; reversing puts column 0 first.
    step = len(tables) + 1
    grid = bytearray(b"0") * (step * width)
    for q, table in enumerate(tables, start=1):
        grid[q::step] = format(full ^ table, f"0{width}b")[::-1].encode()
    return tuple(int(grid[i:i + step], 2) + 1 for i in range(0, len(grid), step))


def structure_matrix(e: Expr, variables: Sequence[str]) -> LogicalMatrix:
    """The 2 x 2^k logical matrix tabulating e over ordered variables.

    Column a is the first basis vector exactly when e evaluates to 1 at
    the assignment decoded from a.
    """
    return LogicalMatrix(2, _columns((e,), variables))


class AlgebraicForm(Record):
    """x(t+1) = L u(t) x(t), y(t) = H x(t) in vector form.

    L has 2^n rows and 2^(n+m) columns in one block of 2^n per control:
    `successors` alone reads that layout, and `state_maps` alone groups
    controls by block.  H has 2^p rows and 2^n columns; when the model has
    no outputs (p = 0), H is the all-ones 1 x 2^n logical matrix.
    """

    __slots__ = ("n", "m", "p", "L", "H")
    n: int
    m: int
    p: int
    L: LogicalMatrix
    H: LogicalMatrix

    @property
    def state_count(self) -> int:
        return 1 << self.n

    @property
    def control_count(self) -> int:
        return 1 << self.m

    def successors(self, j: int) -> tuple[int, ...]:
        """States reached from states 1..2^n under control j (1-based
        indices throughout): item a-1 is the successor of state a."""
        nn = self.state_count
        return self.L.col_index[(j - 1) * nn:j * nn]

    def state_maps(self) -> dict[tuple[int, ...], int]:
        """Each distinct state map `successors(j)`, in control order, to the
        first control j that has it.  Controls with one map act alike, and
        the first stands for them: it is the control a witness step names."""
        maps: dict[tuple[int, ...], int] = {}
        for j in range(1, self.control_count + 1):
            maps.setdefault(self.successors(j), j)
        return maps


def algebraic_form(model: NetworkModel, max_vars: int = MAX_FLAT_VARS) -> AlgebraicForm:
    """Compile by tabulating every update and output rule once over all
    assignments.  L orders its variables inputs first, so its columns
    come in one block of 2^n per control."""
    n, m, p = model.n, model.m, model.p
    check_size(n, m, p, ("compile",), max_vars)
    L = LogicalMatrix(1 << n, _columns(model.updates, model.inputs + model.states))
    H = LogicalMatrix(1 << p, _columns(model.output_maps, model.states))
    return AlgebraicForm(n, m, p, L, H)


def render_algebraic(form: AlgebraicForm) -> str:
    """`--emit algebraic` text: header, then L and H in canonical form."""
    return (
        f"n={form.n} m={form.m} p={form.p}\n"
        f"{form.L.to_text()}\n{form.H.to_text()}\n"
    )
