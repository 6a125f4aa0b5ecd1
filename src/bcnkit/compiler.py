"""Compilation of a network model to its matrix form.

States, inputs and outputs in vector form identify 1 with the first basis
vector of dimension 2 and 0 with the second; a tuple of k bits encodes
(via the Kronecker product of the per-bit vectors) to a single index in
1..2^k, with the first bit most significant and true sorting first.

Rules are tabulated bit-sliced: over k ordered variables, bit t of a
Python int holds a value at the assignment decoded from column t+1.
Each variable is such a periodic mask, and each rule is evaluated once
with its operators applied as int operations.  The truth tables become
column indices through fixed-width lanes, one per column, summed over the
rules as one int and read back through a typed `memoryview`.  No column
walks the AST and none is parsed on its own.  `render_algebraic` writes
L and H to a stream, `TEXT_CHUNK` indices a write, never as one string.
The brute-force oracle evaluates one assignment at a time with its own
`oracle.eval_expr`.  It shares with this module the state index codec
and the node order of `netlang.postorder`, which both evaluators walk,
but not the operator semantics: `_BINARY` here, `oracle._EVAL` there.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

from .netlang import And, Const, Expr, Iff, Implies, NetworkModel, Not, Or, Var, Xor, postorder
from .record import Record

#: Flat compilation refuses models with more than this many state+input bits,
#: and output controllability models with more outputs (H has 2^p rows).
MAX_FLAT_VARS = 20

#: `LogicalMatrix.write_text` writes this many column indices per write.
TEXT_CHUNK = 1 << 16

#: Runs whose estimated peak memory (`compile_bytes`, `closure_bytes` or
#: `pair_space_bytes`) exceeds this many bytes are refused, half of 8 GiB.
MAX_BYTES = 4 << 30


class SizeLimitError(ValueError):
    """A model exceeds a size limit of the requested analysis (`check_size`)."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def compile_bytes(columns_log2: int) -> int:
    """Estimated peak memory of compiling 2^(n+m) columns: 16 MiB plus 136 B
    per column.  Fitted to `bcn compile`'s peak RSS on n-bit counters, 22.0,
    46.4, 78.9, 140.4, 279.7 and 541.1 MiB at n + m = 16 and 18-22 with the text
    joined whole, at most 98%; written in chunks, n + m = 20 peaks at 72 MiB."""
    return (16 << 20) + (136 << columns_log2)


def closure_bytes(n: int, outputs: int = 0, emit: bool = False) -> int:
    """Estimated peak memory of closing the 2^n x 2^n one-step matrix: 24 MiB,
    11/16 byte per entry of C (M, M + I, C and a product's two partial sums
    live at once), 192 B per row of a 2^outputs-row H * C and, with `emit`,
    3 B per entry of the widest printed matrix (2 at n = 13-14, 3 at n = 11-12).
    Fitted to `bcn`'s peak RSS (`os.wait4`): the shift register, whose closure
    rows fill up, peaked at 27, 55, 165 and 598 MiB for n = 12-15, at most 83%."""
    return (24 << 20) + (11 << 2 * n >> 4) + (192 << outputs) + (3 << n + max(n, outputs) if emit else 0)


def pair_space_bytes(n: int, m: int, witness_steps: int = 0) -> int:
    """Estimated peak memory of the witness search, the one path that builds
    the pair space: 4^n * (80 * 2^m + 220) bytes for the pair arrays and
    sets, plus 8 bytes per witness control for the witness texts, plus 512
    bytes of fixed allocations.  Fitted to tracemalloc peaks on 24 seeded
    random models, n = 7-9, m = 0-3, p = 1-2, by least squares (74 * 2^m +
    201 bytes per pair), rounded up so that every peak was at most 96% of
    the estimate (at n = 1, 1.5-1.6 KB).  The fit predates the state-class
    verdict and the streamed report, which hold neither pair maps nor the
    joined text: at n = 9 the traced peak is now 9-23% of the estimate."""
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

    # Column t's index minus 1 has one digit per rule, first rule most
    # significant: 1 where the rule is false at t.  A rule's digits go to the
    # low bytes of the columns' lanes (format() lists the last column first)
    # and shift to its digit; with an all-false table for the 1, the rules
    # sum to the indices, and a lane is wide enough that none carries over.
    rules = len(tables)
    lane, code = next(((s, c) for s, c in zip((1, 2, 4, 8), "BHIQ") if rules < 8 * s), (rules // 8 + 1, ""))
    last = -lane if sys.byteorder == "little" else -1  # the low byte of the last lane
    lanes = bytearray(lane * width)
    total = 0
    false = bytes.maketrans(b"01", b"\1\0")
    for digit, table in ((0, 0), *enumerate(reversed(tables))):
        lanes[last::-lane] = format(table, f"0{width}b").encode().translate(false)
        total += int.from_bytes(lanes, sys.byteorder) << digit
    del lanes, tables  # freed before the read-back, which peaks
    data = total.to_bytes(lane * width, sys.byteorder)
    del total
    if code:
        return tuple(memoryview(data).cast(code))
    return tuple(int.from_bytes(data[i:i + lane], sys.byteorder) for i in range(0, len(data), lane))


class LogicalMatrix(Record):
    """delta_rows[c1, ..., cr]: column k is the basis vector with a single 1
    in row col_index[k]."""

    rows: int
    col_index: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1:
            raise ShapeError("row count must be positive")
        cols = tuple(self.col_index)
        if not cols:
            raise ShapeError("a logical matrix needs at least one column")
        if min(cols) < 1 or max(cols) > self.rows:
            bad = [c for c in cols if not 1 <= c <= self.rows]
            raise ValueError(f"column indices {bad} outside 1..{self.rows}")
        object.__setattr__(self, "col_index", cols)

    @property
    def cols(self) -> int:
        return len(self.col_index)

    def write_text(self, out) -> None:
        """Write the canonical form, 'delta <rows> [c1 c2 ... cr]', to `out`, TEXT_CHUNK indices a write."""
        out.write(f"delta {self.rows} [")
        for k in range(0, self.cols, TEXT_CHUNK):
            out.write((" " if k else "") + " ".join(map(str, self.col_index[k:k + TEXT_CHUNK])))
        out.write("]")

    def __repr__(self) -> str:
        return f"LogicalMatrix(delta_{self.rows}{list(self.col_index)})"


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


def render_algebraic(form: AlgebraicForm, out) -> None:
    """Write the `--emit algebraic` text to `out`: header, then L and H in canonical form."""
    out.write(f"n={form.n} m={form.m} p={form.p}\n")
    for mat in (form.L, form.H):
        mat.write_text(out)
        out.write("\n")
