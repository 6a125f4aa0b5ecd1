"""Matrix algebra over the Boolean semiring ({0,1}, OR, AND).

``BooleanMatrix`` is dense, with each row bit-packed into a Python int.
The column-index ``LogicalMatrix`` and ``ShapeError`` are the compiler's,
and `reach.logical_mul` is the one product with a logical factor, H * C.

All indices in the public API are 1-based.  Values are immutable; every
operation returns a fresh matrix.  The paper's algebra that only the
tests use (semi-tensor and Kronecker products) is in `bcnkit.paper`.

Index lists and packed rows convert one way each.  `from_columns` builds
a matrix from its columns, each a list of its 1-based rows: the one-step
matrix, the indicator matrices of set families and a transpose are all
built so.  `_support` lists the set bits of a packed row, lowest first,
for the transpose, the gather plan below and `paper.kron`: a loop over
the bits of a sparse row, the binary text of a dense one.

A product A*B ORs together, for each row of A, the rows of B its set bits
pick.  The first product with A on the left turns A into a gather plan
(see `BooleanMatrix._gather_plan`) that is kept on A; every product then
gathers and ORs rows of B with `operator.itemgetter` and `map`, one
gather per support position of A's longest row, so the Python-level
steps per product equal the size of that row's support, not A's number
of ones.  The reachability closure multiplies the same matrix, M + I, on
the left in every round, so it builds one plan.  A square A whose
diagonal is all ones, as M + I is, is planned from A - I: the product is
B + (A - I)*B, B's rows ORed in whole, not gathered.  When the plan's
sort keeps the row order, as for the counter's M + I, whose rows each
have one bit off the diagonal, a product skips the un-sort.

Products and sums build their results with `BooleanMatrix._unchecked`,
without re-checking that every row fits the column count: their rows are
ORs of rows already in range.  The constructor, `from_columns` and
`transpose` keep the checks, since their rows or indices come from
outside.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter, or_

from .compiler import ShapeError


class BooleanMatrix:
    """A rows x cols bit matrix.

    Row i (1-based) is stored as an int whose bit (j-1) holds entry (i, j).
    """

    __slots__ = ("rows", "cols", "_bits", "_plan")

    def __init__(self, rows: int, cols: int, row_bits: Iterable[int]):
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        bits = tuple(row_bits)
        if len(bits) != rows:
            raise ShapeError(f"expected {rows} rows, got {len(bits)}")
        if min(bits) < 0 or max(bits) >> cols:
            raise ShapeError("row bits exceed declared column count")
        self.rows = rows
        self.cols = cols
        self._bits = bits
        self._plan = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _unchecked(cls, rows: int, cols: int, row_bits: Iterable[int]) -> "BooleanMatrix":
        """A result whose rows are in range by construction: the checks
        of `__init__` are skipped, but the rows are still kept as a tuple."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self._bits = tuple(row_bits)
        self._plan = None
        return self

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Iterable[int]]) -> "BooleanMatrix":
        """rows x len(columns), with a 1 at (i, k) for each 1-based row i
        that column k lists; a row listed twice is set once."""
        bits = [0] * rows
        for k, column in enumerate(columns):
            bit = 1 << k
            for i in column:
                bits[i - 1] |= bit
        return cls(rows, len(columns), bits)

    @classmethod
    def identity(cls, n: int) -> "BooleanMatrix":
        return cls(n, n, (1 << i for i in range(n)))

    # -- element access and comparisons ---------------------------------

    def get(self, i: int, j: int) -> int:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return (self._bits[i - 1] >> (j - 1)) & 1

    def is_all_ones(self) -> bool:
        full = (1 << self.cols) - 1
        return all(b == full for b in self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._bits) == (other.rows, other.cols, other._bits)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._bits))

    def __repr__(self) -> str:
        body = "; ".join(
            "".join(str((b >> j) & 1) for j in range(self.cols)) for b in self._bits
        )
        return f"BooleanMatrix({self.rows}x{self.cols}: {body})"

    # -- algebra --------------------------------------------------------

    def add(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Boolean sum: elementwise OR.  Shapes must match."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return BooleanMatrix._unchecked(self.rows, self.cols, map(or_, self._bits, other._bits))

    def mul(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Conventional matrix product with AND for *, OR for +.

        Row i of the product is the OR of the right operand's rows picked
        by the support of row i of self, gathered as `_gather_plan` says.
        """
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        slots, unsort, plus = self._plan or self._gather_plan()
        ob = other._bits
        if len(slots) == 1 and slots[0][0] == self.rows:
            acc = slots[0][1](ob)  # one slot spanning every row: its gather is the sum
        else:
            acc = [0] * self.rows
            for t, (w, get) in enumerate(slots):
                acc[:w] = map(or_, acc, get(ob)) if t else get(ob)
        out = unsort(acc)
        if plus:  # B + (A - I)*B, and just B for A = I
            out = map(or_, ob, out) if slots else ob
        return BooleanMatrix._unchecked(self.rows, other.cols, out)

    def _gather_plan(self) -> tuple[tuple, Callable]:
        """How to multiply by any right operand with self on the left.

        Rows are sorted by support size, largest first, so the rows that
        have a t-th set bit form a prefix, of width w_t, of that order.
        Slot t is (w_t, a getter of those rows' t-th indices): a product
        takes one C-level gather per support position of the longest row.
        The last step puts the rows back in order; when the stable sort
        left them in place (every row with the same support size, as in
        the counter's one-step matrix), it is just `tuple`.  A square self
        with an all-ones diagonal is planned from self - I, and `mul` adds
        the right operand's rows (the identity, with no slot, returns them).
        Matrices are immutable, so the plan, built on first use and kept,
        cannot go stale.
        """
        plus = self.rows == self.cols and all(b >> i & 1 for i, b in enumerate(self._bits))
        supports = [_support(b ^ plus << i) for i, b in enumerate(self._bits)]  # A - I if plus
        order = sorted(range(self.rows), key=lambda i: len(supports[i]), reverse=True)
        ranked = [supports[i] for i in order]
        slots = []
        w = self.rows
        for t in range(len(ranked[0])):
            while len(ranked[w - 1]) <= t:
                w -= 1
            slots.append((w, _getter([s[t] for s in ranked[:w]])))
        if order == list(range(self.rows)):
            unsort = tuple
        else:
            unsort = _getter(sorted(range(self.rows), key=order.__getitem__))
        self._plan = tuple(slots), unsort, plus
        return self._plan

    def transpose(self) -> "BooleanMatrix":
        """Row i of self, as a list of 1-based columns, is column i."""
        return BooleanMatrix.from_columns(self.cols, [[j + 1 for j in _support(b)] for b in self._bits])

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: '<rows> <cols>' header, then one 0/1 line per row."""
        # format() prints the highest column first; reversing puts column 1 first.
        row_format = f"0{self.cols}b"
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(format(b, row_format)[::-1] for b in self._bits)
        return "\n".join(lines)


def _support(b: int) -> list[int]:
    """0-based positions of the set bits of b, lowest first.  Each step of
    the loop copies b, so a row with more than a quarter of its bits set,
    or more than 512, is read from its binary text instead."""
    if b.bit_count() * 4 > min(b.bit_length(), 2048):
        return [i for i, ch in enumerate(bin(b)[:1:-1]) if ch == "1"]
    out = []
    while b:
        low = b & -b
        out.append(low.bit_length() - 1)
        b ^= low
    return out


def _getter(indices: list[int]) -> itemgetter:
    """An itemgetter that returns a tuple, also for a single index."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)
