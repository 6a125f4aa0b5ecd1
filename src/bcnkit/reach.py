"""Controllability, set controllability and output controllability.

The one-step matrix M has M(i,a)=1 when some control moves state a to
state i; its reachability closure C (at least one step) decides plain
controllability.  Set-level questions reduce to the Boolean triple
product Jd^T * C * J0 of the closure with 0/1 indicator matrices of the
initial and destination set families; H * C is built by output value,
each row the OR of C's rows over the states with that output, so H is
never made dense.  `compiler.check_size` refuses a closure too large for
memory (`bcn`, before compiling) and H * C with more than 20 outputs.
"""

from __future__ import annotations

from .boolmat import BooleanMatrix, ShapeError
from .compiler import AlgebraicForm, check_size, encode_state
from .record import Record


class StateSet(Record):
    """A subset of the 1..universe state indices; sorted and deduplicated."""

    __slots__ = ("universe", "members")
    universe: int
    members: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(sorted(set(self.members)))
        bad = [s for s in ms if not 1 <= s <= self.universe]
        if bad:
            noun = "index" if len(bad) == 1 else "indices"
            raise ValueError(
                f"{len(bad)} state {noun} outside 1..{self.universe}, the first {_show_int(bad[0])}"
            )
        object.__setattr__(self, "members", ms)


class SetFamily(Record):
    """An ordered family of state subsets (order fixes index-matrix columns)."""

    __slots__ = ("universe", "sets")
    universe: int
    sets: tuple[StateSet, ...]

    def __post_init__(self):
        if any(s.universe != self.universe for s in self.sets):
            raise ValueError("member sets disagree on universe size")

    def duplicates(self) -> tuple[str, ...]:
        """One warning per set with the same members as an earlier set."""
        seen: dict[tuple[int, ...], int] = {}
        out = []
        for k, s in enumerate(self.sets, start=1):
            first = seen.setdefault(s.members, k)
            if first != k:
                out.append(f"set #{k} duplicates set #{first}")
        return tuple(out)


def one_step_matrix(form: AlgebraicForm) -> BooleanMatrix:
    """Boolean OR of the column blocks of L, one per distinct state map."""
    return BooleanMatrix.from_columns(form.state_count, list(zip(*form.state_maps())))


def controllability_matrix(m: BooleanMatrix) -> BooleanMatrix:
    """Least fixpoint of C <- M + M*C starting from M.

    Equals the Boolean sum of M^(i) for i = 1..size (path lengths above
    the vertex count add nothing); entry (i,j) marks reachability of i
    from j in at least one step.  Each round is one product, C <- (I+M)*C,
    with the same iterates and rounds, since C_k + M*C_k = M + M*C_k:
    M <= C_k, and C_k = M + M*C_(k-1) <= M + M*C_k as the iterates grow.
    I only ever multiplies C, so the diagonal still needs a real cycle.
    """
    if m.rows != m.cols:
        raise ShapeError("one-step matrix must be square")
    step = m.add(BooleanMatrix.identity(m.rows))
    c = m
    while True:
        nxt = step.mul(c)
        if nxt == c:
            return c
        c = nxt


def index_matrix(family: SetFamily) -> BooleanMatrix:
    """Column k is the 0/1 indicator vector of the k-th set."""
    if not family.sets:
        raise ValueError("empty set family")
    return BooleanMatrix.from_columns(family.universe, [s.members for s in family.sets])


def set_controllability_matrix(
    c: BooleanMatrix, j0: BooleanMatrix, jd: BooleanMatrix
) -> BooleanMatrix:
    """Jd^T * C * J0 over the Boolean semiring (beta x alpha)."""
    return jd.transpose().mul(c).mul(j0)


def output_controllability_matrix(c: BooleanMatrix, form: AlgebraicForm) -> BooleanMatrix:
    """H * C over the Boolean semiring; all-ones means every output value
    is reachable from every initial state.  Row v is the OR of C's rows
    over the states whose output is v (`LogicalMatrix.mul`), so H is
    never made dense."""
    if form.p == 0:
        raise ValueError("model has no outputs")
    check_size(form.n, form.m, form.p, ("outputs",))
    return form.H.mul(c)


# -- set-specification files ------------------------------------------------


def _parse_int(digits: str) -> int:
    """A JSON integer; one too long for `int` is reported by its length."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"integer of {len(digits.lstrip('-'))} digits is too long") from None


def _show_int(i: int) -> str:
    """i itself, or its digit count if it has more than 20 digits."""
    text = str(i)
    digits = len(text.lstrip("-"))
    return text if digits <= 20 else f"an integer of {digits} digits"


def _parse_state(item, n: int) -> int:
    if isinstance(item, bool):
        raise ValueError(f"bad state spec {item!r}")
    if isinstance(item, int):
        return item
    if isinstance(item, str):
        if set(item) - {"0", "1"} or len(item) != n:
            raise ValueError(f"bit string {item!r} does not have {n} bits")
        return encode_state([int(ch) for ch in item])
    raise ValueError(f"bad state spec {item!r}")


def _parse_family(entries, n: int, key: str) -> SetFamily:
    universe = 1 << n
    sets = []
    for k, ent in enumerate(entries, start=1):
        if not isinstance(ent, dict) or not isinstance(ent.get("states"), list):
            raise ValueError("each set needs a 'states' list")
        members = tuple(_parse_state(s, n) for s in ent["states"])
        if not members:
            raise ValueError(f"{key} set #{k} is empty")
        sets.append(StateSet(universe, members))
    if not sets:
        raise ValueError("empty set family")
    return SetFamily(universe, tuple(sets))


def load_set_spec(text: str, n: int) -> tuple[SetFamily, SetFamily]:
    """Parse the JSON set-specification format; returns (initial,
    destination) families over the 2^n state universe.  States may be
    1-based indices or bit strings like "101" (first state bit first)."""
    import json  # loaded here, so only the command that reads a set spec pays for it

    try:
        doc = json.loads(text, parse_int=_parse_int)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(doc, dict) or not all(
        isinstance(doc.get(key), list) for key in ("initial", "destination")
    ):
        raise ValueError("set spec needs 'initial' and 'destination' lists")
    return tuple(_parse_family(doc[key], n, key) for key in ("initial", "destination"))
