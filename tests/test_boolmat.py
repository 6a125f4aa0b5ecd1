import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcnkit import paper, reach
from bcnkit.boolmat import BooleanMatrix, ShapeError, _support
from bcnkit.compiler import LogicalMatrix


def bm(rows):
    return paper.from_rows(rows)


@st.composite
def matrices(draw, max_dim=8, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    bits = [draw(st.integers(0, (1 << c) - 1)) for _ in range(r)]
    return BooleanMatrix(r, c, bits)


class TestBasics:
    def test_entry_access_and_bounds(self):
        a = bm([[0, 1], [1, 0]])
        assert a.get(1, 2) == 1 and a.get(2, 2) == 0
        with pytest.raises(IndexError):
            a.get(0, 1)
        with pytest.raises(IndexError):
            a.get(1, 3)

    def test_equality_is_bitwise(self):
        assert bm([[1, 0]]) == bm([[1, 0]])
        assert bm([[1, 0]]) != bm([[1], [0]])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            BooleanMatrix(0, 1, [])
        with pytest.raises(ShapeError):
            BooleanMatrix(1, 1, [2])  # bit outside declared width

    def test_bits_outside_columns_rejected(self):
        with pytest.raises(ShapeError):
            BooleanMatrix(2, 3, [1, -1])
        with pytest.raises(ShapeError):
            BooleanMatrix(2, 3, [0, 1 << 3])
        assert BooleanMatrix(2, 3, [0, 1 << 2]).get(2, 3) == 1


class TestAdd:
    def test_elementwise_or(self):
        a = bm([[0, 1], [1, 0]])
        b = bm([[1, 1], [0, 0]])
        assert a.add(b) == bm([[1, 1], [1, 0]])

    def test_idempotent(self):
        a = bm([[1, 0], [0, 1]])
        assert a.add(a) == a

    def test_zero_is_neutral(self):
        a = bm([[1, 0], [1, 1]])
        assert a.add(paper.zeros(2, 2)) == a

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bm([[1]]).add(bm([[1, 0]]))


class TestKron:
    def test_identity_times_identity(self):
        i2 = BooleanMatrix.identity(2)
        assert paper.kron(i2, i2) == BooleanMatrix.identity(4)

    def test_ones_row_with_identity(self):
        ones = bm([[1, 1]])
        expect = bm([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert paper.kron(ones, BooleanMatrix.identity(2)) == expect

    def test_basis_vectors(self):
        d1 = paper.basis_column(2, 1)
        d2 = paper.basis_column(2, 2)
        assert paper.kron(d1, d2) == paper.basis_column(4, 2)


class TestStp:
    def test_basis_vectors(self):
        d1 = paper.basis_column(2, 1)
        d2 = paper.basis_column(2, 2)
        assert paper.stp(d1, d2) == paper.basis_column(4, 2)

    def test_identity_absorbs(self):
        a = bm([[1, 0, 1], [0, 1, 1]])
        assert paper.stp(BooleanMatrix.identity(2), a) == a

    def test_vector_pseudo_commutation_instance(self):
        # X ltimes M = (I_t kron M) ltimes X for the 2-vector and negation.
        x = paper.basis_column(2, 1)
        m = paper.to_boolean(LogicalMatrix(2, (2, 1)))
        lhs = paper.stp(x, m)
        rhs = paper.stp(paper.kron(BooleanMatrix.identity(2), m), x)
        assert lhs == rhs

    @settings(max_examples=150)
    @given(matrices(max_dim=6), matrices(max_dim=6), matrices(max_dim=6))
    def test_associativity(self, a, b, c):
        assert paper.stp(paper.stp(a, b), c) == paper.stp(a, paper.stp(b, c))

    @settings(max_examples=150)
    @given(st.data())
    def test_distributivity(self, data):
        a = data.draw(matrices(max_dim=6))
        b = data.draw(matrices(rows=a.rows, cols=a.cols))
        c = data.draw(matrices(max_dim=6))
        assert paper.stp(a.add(b), c) == paper.stp(a, c).add(paper.stp(b, c))
        assert paper.stp(c, a.add(b)) == paper.stp(c, a).add(paper.stp(c, b))

    @settings(max_examples=150)
    @given(matrices(max_dim=6), matrices(max_dim=6))
    def test_transpose_reversal(self, a, b):
        assert paper.stp(a, b).transpose() == paper.stp(b.transpose(), a.transpose())

    @settings(max_examples=100)
    @given(st.data())
    def test_vector_pseudo_commutation(self, data):
        t = data.draw(st.integers(1, 6))
        x = data.draw(matrices(rows=t, cols=1))
        m = data.draw(matrices(max_dim=4))
        assert paper.stp(x, m) == paper.stp(paper.kron(BooleanMatrix.identity(t), m), x)

    @settings(max_examples=100)
    @given(st.data())
    def test_reduces_to_conventional_product(self, data):
        a = data.draw(matrices(max_dim=6))
        b = data.draw(matrices(rows=a.cols))
        assert paper.stp(a, b) == a.mul(b)


def naive_mul(a, b):
    """Triple-loop reference product over entries."""
    return paper.from_rows([
        [int(any(a.get(i, k) and b.get(k, j) for k in range(1, a.cols + 1)))
         for j in range(1, b.cols + 1)]
        for i in range(1, a.rows + 1)
    ])


@st.composite
def left_factors(draw, max_dim=12):
    """Left operands with the row supports the gather plan treats apart:
    any bits, at most one bit per row, some all-zero rows, one full row
    among sparse rows; shapes include 1 x k and k x 1.  A square matrix
    ORed with the identity, as the closure's M + I, is planned without its
    diagonal; identity(k), 1 x 1 included, leaves the plan no slot."""
    if draw(st.integers(0, 4)) == 0:  # contains I
        k = draw(st.integers(1, max_dim))
        off = draw(st.sampled_from(["none", "one bit", "any"]))
        picks = {"none": st.just(0), "one bit": st.sampled_from([0] + [1 << j for j in range(k)]),
                 "any": st.integers(0, (1 << k) - 1)}[off]
        return BooleanMatrix(k, k, [1 << i | draw(picks) for i in range(k)])
    shape = draw(st.sampled_from(["any", "one row", "one column"]))
    r = 1 if shape == "one row" else draw(st.integers(1, max_dim))
    c = 1 if shape == "one column" else draw(st.integers(1, max_dim))
    full = (1 << c) - 1
    kind = draw(st.sampled_from(["random", "sparse", "zero rows", "full row"]))
    if kind == "random":
        bits = [draw(st.integers(0, full)) for _ in range(r)]
    else:
        bits = [draw(st.sampled_from([0] + [1 << j for j in range(c)])) for _ in range(r)]
        if kind == "zero rows":
            bits = [b if draw(st.booleans()) else 0 for b in bits]
        elif kind == "full row":
            bits[draw(st.integers(0, r - 1))] = full
    return BooleanMatrix(r, c, bits)


def planned_support(a):
    """The longest row support the gather plan must walk: that of A - I
    when A is square with an all-ones diagonal, else that of A."""
    entries = [[a.get(i, j) for j in range(1, a.cols + 1)] for i in range(1, a.rows + 1)]
    if a.rows == a.cols and all(entries[i][i] for i in range(a.rows)):
        return max(sum(row) for row in entries) - 1
    return max(sum(row) for row in entries)


class TestProduct:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_naive(self, data):
        a = data.draw(left_factors())
        b = data.draw(matrices(max_dim=12, rows=a.cols))
        assert a.mul(b) == naive_mul(a, b)
        assert len(a._plan[0]) == planned_support(a)

    @pytest.mark.parametrize("a", [
        bm([[1, 0, 1, 1]]),
        bm([[0, 0, 1, 0]]),
        bm([[0, 0, 0, 0]]),
        bm([[1], [0], [1]]),
        bm([[0], [1], [0]]),
        bm([[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]),
        bm([[1, 1, 1], [1, 0, 0], [0, 1, 0]]),
        # The 9-bit counter's H: one row of 511 ones and a one-bit row.
        BooleanMatrix(2, 512, [(1 << 511) - 1, 1 << 511]),
        # A Jd^T with sets of 300, 3 and 0 states.
        BooleanMatrix(3, 512, [(1 << 300) - 1, 0b10101 << 200, 0]),
        # A sink state: one full row among one-bit rows.
        BooleanMatrix(64, 64, [(1 << 64) - 1 if i == 17 else 1 << (i * 7 % 64) for i in range(64)]),
        # No set bit, so a plan with no slots, reused by every product.
        BooleanMatrix(4, 4, [0, 0, 0, 0]),
        # The counter's M, equal to its M + I: every row has one bit off the
        # diagonal, so the plan has one slot and keeps the row order.
        BooleanMatrix(16, 16, [1 << i | 1 << (i + 1) % 16 for i in range(16)]),
        # The identity: nothing off the diagonal, so a plan with no slots.
        BooleanMatrix.identity(5),
        # The 16-cycle's M + I, built as the closure builds its step.
        BooleanMatrix(16, 16, [1 << (i - 1) % 16 for i in range(16)]).add(BooleanMatrix.identity(16)),
        # A full diagonal with 0, 2, 1, 3, 0 and 1 bits off it: the plan un-sorts.
        bm([[1, 0, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1],
            [1, 1, 0, 1, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1]]),
    ], ids=["1x4", "1x4-one-bit", "1x4-zero", "3x1", "3x1-one-bit", "full-row", "skewed",
            "counter-H", "Jd-transposed", "sink-row", "4x4-zero", "counter-M",
            "identity-5", "cycle-16-plus-I", "diagonal-unsorted"])
    def test_edge_shapes(self, a):
        rng = random.Random(a.rows * 31 + a.cols)
        plan = None
        for cols in (1, 3, 9):
            b = BooleanMatrix(a.cols, cols, [rng.getrandbits(cols) for _ in range(a.cols)])
            assert a.mul(b) == naive_mul(a, b)
            plan = plan or a._plan
            assert a._plan is plan
        assert len(plan[0]) == planned_support(a)

    def test_one_left_factor_many_right_operands(self):
        rng = random.Random(5)
        a = BooleanMatrix(10, 8, [rng.getrandbits(8) & rng.getrandbits(8) for _ in range(10)])
        a.mul(paper.zeros(8, 1))
        plan = a._plan
        for cols in (1, 2, 7, 8, 40):
            b = BooleanMatrix(8, cols, [rng.getrandbits(cols) for _ in range(8)])
            assert a.mul(b) == naive_mul(a, b)
        assert a._plan is plan

    def test_plan_leaves_equality_and_hash(self):
        a = bm([[1, 0, 1], [0, 1, 0]])
        b = bm([[1, 0, 1], [0, 1, 0]])
        a.mul(BooleanMatrix.identity(3))
        assert a._plan is not None and b._plan is None
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != bm([[1, 0, 1], [0, 1, 1]])


class TestPower:
    """Powers M^(k) of a square matrix, formed by repeated `mul` as the
    closure and the power-sum cross-checks form them."""

    def test_identity_fixed(self):
        i3 = BooleanMatrix.identity(3)
        acc = i3
        for _ in range(4):
            acc = acc.mul(i3)
            assert acc == i3

    def test_one_step_matrix_squared_column(self):
        # One-step matrix of the toy network; column 1 of M^(2) is the OR
        # of M's columns on the support of M's column 1.
        m = bm([[0, 0, 1, 1],
                [1, 1, 1, 1],
                [0, 0, 1, 0],
                [0, 1, 1, 0]])
        sq = m.mul(m)
        assert [sq.get(i, 1) for i in range(1, 5)] == [0, 1, 0, 1]

    def test_nilpotent(self):
        a = bm([[0, 1], [0, 0]])
        assert a.mul(a) == paper.zeros(2, 2)

    def test_non_square_rejected(self):
        a = bm([[1, 0]])
        with pytest.raises(ShapeError):
            a.mul(a)


#: Shapes for the seeded conversion checks: 1 x k, k x 1, and wider ones.
SHAPES = [(1, 1), (1, 9), (9, 1), (5, 12), (13, 4)]


def random_matrix(rng, rows, cols):
    """Any bits, or sparse bits with some all-zero rows."""
    if rng.random() < 0.5:
        return BooleanMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
    return BooleanMatrix(rows, cols, [
        rng.getrandbits(cols) & rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(rows)
    ])


class TestConversions:
    """`from_columns` in, `_support` out: each against an entrywise
    reference on seeded draws."""

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_from_columns(self, rows, cols):
        rng = random.Random(rows * 100 + cols)
        for _ in range(40):
            # Some columns list no rows, some list a row more than once.
            columns = [[rng.randint(1, rows) for _ in range(rng.choice([0, 0, 1, 3, 8]))]
                       for _ in range(cols)]
            m = BooleanMatrix.from_columns(rows, columns)
            assert (m.rows, m.cols) == (rows, cols)
            for i in range(1, rows + 1):
                for k in range(1, cols + 1):
                    assert m.get(i, k) == (i in columns[k - 1])

    @pytest.mark.parametrize("width", [512, 4096])
    def test_support_of_dense_rows(self, width):
        # Rows from a few bits to every bit, on both sides of the switch from
        # the bit loop to the binary text (a quarter of the row, or 512 bits).
        rng = random.Random(width)
        full = (1 << width) - 1
        rows = [full, full ^ 1, full >> 1, 1 << width - 1 | 1, 0, 1]
        for share in (1, 2, 4, 8, 16, 64):
            for _ in range(4):
                k = min(width, width // share + rng.choice([-1, 0, 1]))
                rows.append(sum(1 << j for j in rng.sample(range(width), k)))
        for b in rows:
            assert _support(b) == [j for j in range(width) if b >> j & 1]

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_transpose(self, rows, cols):
        rng = random.Random(rows * 100 + cols + 1)
        for _ in range(40):
            m = random_matrix(rng, rows, cols)
            t = m.transpose()
            assert (t.rows, t.cols) == (cols, rows)
            for i in range(1, rows + 1):
                for j in range(1, cols + 1):
                    assert t.get(j, i) == m.get(i, j)
            assert t.transpose() == m

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_kron(self, rows, cols):
        rng = random.Random(rows * 100 + cols + 2)
        for _ in range(10):
            a = random_matrix(rng, rows, cols)
            b = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            k = paper.kron(a, b)
            assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
            for i in range(a.rows):
                for j in range(a.cols):
                    for p in range(b.rows):
                        for q in range(b.cols):
                            entry = k.get(i * b.rows + p + 1, j * b.cols + q + 1)
                            assert entry == a.get(i + 1, j + 1) & b.get(p + 1, q + 1)


class TestLogicalMatrix:
    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            LogicalMatrix(2, (3,))

    def test_bad_indices_listed(self):
        with pytest.raises(ValueError, match=r"column indices \[0, 3\] outside 1..2"):
            LogicalMatrix(2, (1, 0, 2, 3))

    @pytest.mark.parametrize("rows,cols", SHAPES)
    def test_product_matches_dense(self, rows, cols):
        # Rows no column names stay zero; a row several columns name ORs
        # the right operand's rows at all of them.
        rng = random.Random(rows * 100 + cols + 3)
        for _ in range(20):
            a = LogicalMatrix(rows, tuple(rng.randint(1, rows) for _ in range(cols)))
            b = random_matrix(rng, cols, rng.randint(1, 9))
            assert reach.logical_mul(a, b) == naive_mul(paper.to_boolean(a), b)

    def test_product_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reach.logical_mul(LogicalMatrix(2, (1, 2, 2)), BooleanMatrix.identity(2))


class TestSerialization:
    def test_canonical_forms(self):
        assert LogicalMatrix(2, (1, 2, 2)).to_text() == "delta 2 [1 2 2]"
        assert bm([[1, 0], [0, 1]]).to_text() == "2 2\n10\n01"
