"""Matrix algebra over the Boolean semiring ({0,1}, OR, AND).

Two representations:

* ``BooleanMatrix`` -- dense, with each row bit-packed into a Python int.
* ``LogicalMatrix`` -- a matrix whose every column is a canonical basis
  vector, stored as an array of 1-based column indices (the compact
  ``delta_m[i1,...,ir]`` form).

All indices in the public API are 1-based.  Values are immutable; every
operation returns a fresh matrix.

Index lists and packed rows convert one way each.  `from_columns` builds
a matrix from its columns, each a list of its 1-based rows: the one-step
matrix, the indicator matrices of set families, a logical matrix and a
transpose are all built so.  `_support` lists the set bits of a packed
row, lowest first, for the transpose, the Kronecker product and the
gather plan below: a loop over the bits of a sparse row, the binary text
of a dense one.

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
ORs of rows already in range.  The public constructors, `from_rows`,
`from_columns`, `transpose` and `kron` keep the checks, since their rows
or indices come from outside.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import itemgetter, or_
from typing import Callable, Iterable, Sequence

from .record import Record


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


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
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "BooleanMatrix":
        rows = len(entries)
        if rows == 0:
            raise ShapeError("matrix dimensions must be positive")
        cols = len(entries[0])
        if any(len(r) != cols for r in entries):
            raise ShapeError("ragged rows")
        bits = []
        for r in entries:
            acc = 0
            for j, v in enumerate(r):
                if v not in (0, 1):
                    raise ValueError(f"entry {v!r} is not a bit")
                acc |= v << j
            bits.append(acc)
        return cls(rows, cols, bits)

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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BooleanMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BooleanMatrix":
        full = (1 << cols) - 1
        return cls(rows, cols, (full,) * rows)

    @classmethod
    def basis_column(cls, n: int, i: int) -> "BooleanMatrix":
        """The column vector delta_n^i."""
        if not 1 <= i <= n:
            raise IndexError(f"basis index {i} out of 1..{n}")
        return cls(n, 1, (1 if k == i - 1 else 0 for k in range(n)))

    # -- element access -----------------------------------------------

    def get(self, i: int, j: int) -> int:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols}")
        return (self._bits[i - 1] >> (j - 1)) & 1

    def column_support(self, j: int) -> tuple[int, ...]:
        """1-based row indices of the 1-entries in column j."""
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside 1..{self.cols}")
        m = 1 << (j - 1)
        return tuple(i + 1 for i in range(self.rows) if self._bits[i] & m)

    def is_all_ones(self) -> bool:
        full = (1 << self.cols) - 1
        return all(b == full for b in self._bits)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._bits) == (other.rows, other.cols, other._bits)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._bits))

    def __le__(self, other: "BooleanMatrix") -> bool:
        """Entrywise <= for same-shaped matrices."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in entrywise comparison")
        return all(a & ~b == 0 for a, b in zip(self._bits, other._bits))

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

    def kron(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Kronecker product over the Boolean semiring."""
        out = []
        for a in self._bits:
            shifts = [j * other.cols for j in _support(a)]
            out.extend(reduce(or_, [b << s for s in shifts], 0) for b in other._bits)
        return BooleanMatrix(self.rows * other.rows, self.cols * other.cols, out)

    def stp(self, other: "BooleanMatrix") -> "BooleanMatrix":
        """Semi-tensor product: Kronecker-pad both operands to the lcm of
        the inner dimensions, then multiply conventionally."""
        t = lcm(self.cols, other.rows)
        left = self if t == self.cols else self.kron(BooleanMatrix.identity(t // self.cols))
        right = other if t == other.rows else other.kron(BooleanMatrix.identity(t // other.rows))
        return left.mul(right)

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


class LogicalMatrix(Record):
    """delta_rows[c1, ..., cr]: column k is the basis vector with a single 1
    in row col_index[k]."""

    __slots__ = ("rows", "col_index")
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

    def column(self, k: int) -> int:
        if not 1 <= k <= self.cols:
            raise IndexError(f"column {k} outside 1..{self.cols}")
        return self.col_index[k - 1]

    def to_boolean(self) -> BooleanMatrix:
        return BooleanMatrix.from_columns(self.rows, [(c,) for c in self.col_index])

    def mul(self, other: BooleanMatrix) -> BooleanMatrix:
        """The Boolean product with a dense right operand, equal to
        `self.to_boolean().mul(other)`: row i ORs the rows of other at the
        columns k whose index is i, so rows no column names stay zero."""
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        acc = [0] * self.rows
        for i, b in zip(self.col_index, other._bits):
            acc[i - 1] |= b
        return BooleanMatrix._unchecked(self.rows, other.cols, acc)

    def to_text(self) -> str:
        """Canonical form: 'delta <rows> [c1 c2 ... cr]'."""
        return f"delta {self.rows} [{' '.join(map(str, self.col_index))}]"

    def __repr__(self) -> str:
        return f"LogicalMatrix(delta_{self.rows}{list(self.col_index)})"
