"""The paper's matrix algebra, the reference the engines are checked
against: semi-tensor and Kronecker products, dense constructors and
readers, and observability as set controllability of the paired system.

Only the tests import it, no `bcn` command.  Functions take the matrix
first and read its packed rows `_bits`, as `LogicalMatrix.mul` does; they
call the engines through their modules, so a test that replaces a module
attribute replaces what they call.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from . import compiler, observe, reach
from .boolmat import BooleanMatrix, LogicalMatrix, ShapeError, _support


def from_rows(entries: Sequence[Sequence[int]]) -> BooleanMatrix:
    """The matrix whose row i lists entries (i, 1), (i, 2), ... as 0 or 1."""
    if not entries:
        raise ShapeError("matrix dimensions must be positive")
    if any(len(r) != len(entries[0]) for r in entries):
        raise ShapeError("ragged rows")
    if bad := [v for r in entries for v in r if v not in (0, 1)]:
        raise ValueError(f"entry {bad[0]!r} is not a bit")
    return BooleanMatrix(len(entries), len(entries[0]), [sum(v << j for j, v in enumerate(r)) for r in entries])


def zeros(rows: int, cols: int) -> BooleanMatrix:
    return BooleanMatrix(rows, cols, (0,) * rows)


def ones(rows: int, cols: int) -> BooleanMatrix:
    return BooleanMatrix(rows, cols, ((1 << cols) - 1,) * rows)


def basis_column(n: int, i: int) -> BooleanMatrix:
    """The column vector delta_n^i."""
    if not 1 <= i <= n:
        raise IndexError(f"basis index {i} out of 1..{n}")
    return BooleanMatrix(n, 1, (1 if k == i - 1 else 0 for k in range(n)))


def column_support(a: BooleanMatrix, j: int) -> tuple[int, ...]:
    """1-based row indices of the 1-entries in column j."""
    if not 1 <= j <= a.cols:
        raise IndexError(f"column {j} outside 1..{a.cols}")
    return tuple(i for i, b in enumerate(a._bits, start=1) if b >> (j - 1) & 1)


def column(h: LogicalMatrix, k: int) -> int:
    if not 1 <= k <= h.cols:
        raise IndexError(f"column {k} outside 1..{h.cols}")
    return h.col_index[k - 1]


def to_boolean(h: LogicalMatrix) -> BooleanMatrix:
    return BooleanMatrix.from_columns(h.rows, [(c,) for c in h.col_index])


def kron(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """Kronecker product over the Boolean semiring.  Row (i, p) is row p of
    b times a spread with a 1 at bit j * b.cols per set bit j of row i of
    a: row p is below 2^b.cols, so the shifted copies sum to their OR."""
    out = []
    for r in a._bits:
        spread = sum(1 << j * b.cols for j in _support(r))
        out.extend(row * spread for row in b._bits)
    return BooleanMatrix(a.rows * b.rows, a.cols * b.cols, out)


def stp(a: BooleanMatrix, b: BooleanMatrix) -> BooleanMatrix:
    """Semi-tensor product: Kronecker-pad both operands to the lcm of the
    inner dimensions, then multiply conventionally."""
    t = lcm(a.cols, b.rows)
    left = a if t == a.cols else kron(a, BooleanMatrix.identity(t // a.cols))
    right = b if t == b.rows else kron(b, BooleanMatrix.identity(t // b.rows))
    return left.mul(right)


def theta_indices(part: observe.PairPartition) -> tuple[int, ...]:
    return tuple(observe.pair_index(z, x, part.n) for z, x in part.theta)


def theta_ordered(part: observe.PairPartition) -> frozenset[int]:
    """Theta in both orientations."""
    return frozenset(observe.pair_index(a, b, part.n) for z, x in part.theta for a, b in ((z, x), (x, z)))


def diagonal(part: observe.PairPartition) -> frozenset[int]:
    nn = 1 << part.n
    return frozenset(range(1, nn * nn + 1, nn + 1))


def observability_setup(part: observe.PairPartition) -> tuple[reach.SetFamily, reach.SetFamily]:
    """Initial family: one singleton per Theta representative, in order.
    Destination family: the single set Xi (both orientations)."""
    universe = 1 << (2 * part.n)
    p0 = reach.SetFamily(universe, tuple(reach.StateSet(universe, (w,)) for w in theta_indices(part)))
    pd = reach.SetFamily(universe, (reach.StateSet(universe, tuple(sorted(part.xi))),))
    return p0, pd


def pair_maps(form: compiler.AlgebraicForm) -> tuple[tuple[int, ...], ...]:
    """The paired system per control, as 4^n-long index arrays: item j-1
    maps the 0-based pair w-1, w = pair_index(z, x), to pair_index(L_j z, L_j x)."""
    nn = form.state_count
    return tuple(tuple([(sz - 1) * nn + sx for sz in succ for sx in succ])
                 for succ in map(form.successors, range(1, form.control_count + 1)))


def dense_verdict_row(form: compiler.AlgebraicForm) -> BooleanMatrix:
    """The 1 x |Theta| row Jd^T * C_ext * J0, J0 the Theta singletons and
    Jd = Xi, from the paired system's dense closure: entry k is 1 when
    representative k is distinguishable.  Only viable for 2n <= 12."""
    compiler.check_size(form.n, form.m, form.p, ("dense_row",))
    m_ext = BooleanMatrix.from_columns(1 << (2 * form.n), list(zip(*pair_maps(form))))
    c_ext = reach.controllability_matrix(m_ext)
    p0, pd = observability_setup(observe.partition_pairs(form))
    return reach.set_controllability_matrix(c_ext, reach.index_matrix(p0), reach.index_matrix(pd))
