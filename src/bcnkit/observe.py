"""Observability decided through pair-space reachability.

Two copies of the network are driven by one shared control sequence; the
joint state (z, x) is a single index in 1..2^(2n).  Pairs split into the
diagonal D, the same-output off-diagonal class Theta, and the
differing-output class Xi.  The network is observable exactly when from
every Theta pair some control sequence reaches Xi; a shortest such
sequence is a distinguishing witness.

One multi-source breadth-first search backward from Xi over the pair
graph gives every pair's distance to Xi at once, so all verdicts come
from a single O(4^n * 2^m) pass.  Among the shortest sequences, the
witness is the lexicographically smallest: at each step it takes the
smallest control that brings the pair one step closer to Xi, read off
the distances.  `_first_steps` is that one step rule: it tries each
control once, in ascending order, over every pair still without a step.
The verdict makes one such sweep over all distinguishable Theta
representatives, and `distinguishing_witness` one per step of its pair.
Swapping the two copies maps the pair graph onto itself, so (z, x) and
(x, z) share their witness.  The report keeps one step per Theta
representative (first control, T, the representative one step closer,
found through a position list over both orientations): a tree rooted in
Xi, whose texts, rendered in ascending T, share their suffixes.  The
dense closure (`dense_verdict_row`) of the paired system stays as the
paper's cross-check; it and `observability_setup` import `reach` when
called, so the verdict path does not load it.  `check_size` refuses a
pair space too large for memory before building it, and too many
witness controls after the search.
"""

from __future__ import annotations

from .boolmat import BooleanMatrix
from .compiler import AlgebraicForm, SizeLimitError, check_size
from .record import Record

def pair_index(z: int, x: int, n: int) -> int:
    """Index of the joint state (z, x) in 1..2^(2n): (z-1)*2^n + x."""
    nn = 1 << n
    if not (1 <= z <= nn and 1 <= x <= nn):
        raise IndexError(f"pair ({z},{x}) outside 1..{nn}")
    return (z - 1) * nn + x


class PairPartition(Record):
    """Theta / Xi split of the 2^(2n) joint indices; the diagonal D is the
    rest.

    theta holds only the z < x representatives, in ascending pair-index
    order; xi holds both orientations.  The verdict reads only these two,
    so `diagonal` and `theta_ordered` (both orientations) are built on
    demand.
    """

    __slots__ = ("n", "theta", "xi")
    n: int
    theta: tuple[tuple[int, int], ...]
    xi: frozenset[int]

    @property
    def theta_indices(self) -> tuple[int, ...]:
        return tuple(pair_index(z, x, self.n) for z, x in self.theta)

    @property
    def theta_ordered(self) -> frozenset[int]:
        n = self.n
        return frozenset(pair_index(a, b, n) for z, x in self.theta for a, b in ((z, x), (x, z)))

    @property
    def diagonal(self) -> frozenset[int]:
        nn = 1 << self.n
        return frozenset(range(1, nn * nn + 1, nn + 1))


def partition_pairs(form: AlgebraicForm) -> PairPartition:
    outputs = form.H.col_index
    nn = len(outputs)
    theta = []
    xi = []
    for z, hz in enumerate(outputs, start=1):
        w = (z - 1) * nn  # pair_index(z, x, n) - x
        for x, hx in enumerate(outputs, start=1):
            if hz != hx:
                xi.append(w + x)
            elif z < x:
                theta.append((z, x))
    return PairPartition(n=form.n, theta=tuple(theta), xi=frozenset(xi))


#: Per-control successor maps on the pair space, kept as index arrays
#: (never dense 2^(2n) x 2^(2n) bits): item j-1 maps the 0-based pair
#: w-1 to the 1-based pair reached from pair w under control j.
PairMaps = tuple[tuple[int, ...], ...]


def extended_system(form: AlgebraicForm) -> PairMaps:
    """Pair each control's successor slice of L with itself: control j
    sends (z, x) to (L_j z, L_j x), enumerated directly.  Refuses a model
    whose pair space would not fit in `compiler.MAX_BYTES`, before any of
    it is built."""
    check_size(form.n, form.m, form.p, ("pairs",))
    nn = form.state_count
    maps = []
    for j in range(1, form.control_count + 1):
        succ = form.successors(j)
        mp = []
        for sz in succ:
            base = (sz - 1) * nn
            for sx in succ:
                mp.append(base + sx)
        maps.append(tuple(mp))
    return tuple(maps)


def observability_setup(part: PairPartition) -> tuple[SetFamily, SetFamily]:
    """Initial family: one singleton per Theta representative, in
    representative order.  Destination family: the single set Xi (both
    orientations)."""
    from .reach import SetFamily, StateSet

    universe = 1 << (2 * part.n)
    p0 = SetFamily(
        universe,
        tuple(StateSet(universe, (w,)) for w in part.theta_indices),
    )
    pd = SetFamily(universe, (StateSet(universe, tuple(sorted(part.xi))),))
    return p0, pd


class ObservabilityReport(Record):
    __slots__ = ("observable", "theta", "flags", "steps")
    observable: bool
    theta: tuple[tuple[int, int], ...]
    flags: tuple[bool, ...]  # distinguishable, per theta representative
    steps: tuple[tuple[int, int, int] | None, ...]  # (first control, T, next position, -1 in Xi)

    @property
    def witnesses(self) -> tuple[tuple[tuple[int, ...], int] | None, ...]:
        """(controls, T) per representative, walked along the steps."""
        def controls(k):
            while k >= 0:
                j, _, k = self.steps[k]
                yield j
        return tuple(step and (tuple(controls(k)), step[1]) for k, step in enumerate(self.steps))


def _distances(ext: PairMaps, xi: frozenset[int]) -> list[int]:
    """dist[w-1] is the length of a shortest control sequence that drives
    pair w into Xi (0 on Xi itself), or -1 when none does.  One
    multi-source breadth-first search runs backward from all of Xi at
    once over the predecessor lists of the pair graph."""
    preds: list[list[int]] = [[] for _ in ext[0]]
    for mp in ext:
        for w, nxt in enumerate(mp):
            preds[nxt - 1].append(w)
    dist = [-1] * len(preds)
    frontier = [w - 1 for w in xi]
    for w in frontier:
        dist[w] = 0
    d = 0
    while frontier:
        d += 1
        reached = []
        for v in frontier:
            for w in preds[v]:
                if dist[w] < 0:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return dist


def _first_steps(ext: PairMaps, dist: list[int], pairs: list[int]) -> list[tuple[int, int]]:
    """For each 0-based pair w of pairs (each at a positive distance), the
    smallest control j that moves w one step closer to Xi, and the 0-based
    pair it moves to.  Each control is tried once, in ascending order,
    over the pairs that have no step yet, so the smallest one that
    qualifies wins.  Taking it at every step spells the lexicographically
    smallest shortest sequence, the one a forward breadth-first search
    trying controls in ascending order would find."""
    steps: list = [None] * len(pairs)
    todo = [(k, w, dist[w] - 1) for k, w in enumerate(pairs)]
    for j, mp in enumerate(ext, start=1):
        left = []
        for item in todo:
            k, w, d = item
            nxt = mp[w] - 1
            if dist[nxt] == d:
                steps[k] = (j, nxt)
            else:
                left.append(item)
        todo = left
    return steps


def observability_verdict(form: AlgebraicForm, want_witnesses: bool = False) -> ObservabilityReport:
    """Distances to Xi of every pair from one backward search; a Theta
    representative is distinguishable exactly when its distance is
    positive (Theta and Xi are disjoint, so T >= 1).  With witnesses, one
    `_first_steps` sweep gives every distinguishable representative its
    step, and a position list over both orientations of each
    representative names the representative one step closer (-1 in Xi)."""
    if form.p == 0:
        raise ValueError("observability needs at least one output")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    part = partition_pairs(form)
    dist = _distances(ext, part.xi)
    nn = form.state_count
    reps = [(z - 1) * nn + x - 1 for z, x in part.theta]  # pair_index(z, x, n) - 1
    ts = [dist[w] for w in reps]
    flags = tuple(t > 0 for t in ts)
    steps: list[tuple[int, int, int] | None] = [None] * len(reps)
    if want_witnesses:
        live = [k for k, t in enumerate(ts) if t > 0]
        check_size(form.n, form.m, form.p, ("pairs",), witness_steps=sum([ts[k] for k in live]))
        position = [-1] * len(dist)
        for k, (z, x) in enumerate(part.theta):
            position[(z - 1) * nn + x - 1] = position[(x - 1) * nn + z - 1] = k
        for k, (j, nxt) in zip(live, _first_steps(ext, dist, [reps[k] for k in live])):
            steps[k] = (j, ts[k], position[nxt])
    return ObservabilityReport(
        observable=all(flags),
        theta=part.theta,
        flags=flags,
        steps=tuple(steps),
    )


def distinguishing_witness(
    form: AlgebraicForm, z0: int, x0: int
) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically smallest shortest control sequence whose joint
    trajectory from (z0, x0) lands in Xi, or None if unreachable.  A pair
    already in Xi yields the empty sequence with T = 0."""
    if z0 == x0:
        raise ValueError("witness requires two distinct initial states")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    dist = _distances(ext, partition_pairs(form).xi)
    w = pair_index(z0, x0, form.n) - 1
    if dist[w] < 0:
        return None
    controls = []
    for _ in range(dist[w]):
        [(j, w)] = _first_steps(ext, dist, [w])
        controls.append(j)
    return tuple(controls), len(controls)


def dense_verdict_row(form: AlgebraicForm) -> BooleanMatrix:
    """Cross-check engine: the 1 x |Theta| set-controllability row
    Jd^T * C_ext * J0 computed with dense closure on the pair space.
    Only viable for small pair spaces (2n <= 12)."""
    from .reach import controllability_matrix, index_matrix, set_controllability_matrix

    check_size(form.n, form.m, form.p, ("dense_row",))
    m_ext = BooleanMatrix.from_columns(1 << (2 * form.n), list(zip(*extended_system(form))))
    c_ext = controllability_matrix(m_ext)
    p0, pd = observability_setup(partition_pairs(form))
    return set_controllability_matrix(c_ext, index_matrix(p0), index_matrix(pd))


def render_report(report: ObservabilityReport, cs_row: BooleanMatrix | None = None) -> str:
    """One line per Theta representative, then the global verdict.  Built in ascending T,
    a witness text is its first control, then the text of the representative one step on.
    Each line then replaces its witness text in the same list, so the texts and the
    lines are never all held at once."""
    steps = report.steps
    lines = [""] * len(steps)
    for k in sorted((k for k, step in enumerate(steps) if step), key=lambda k: steps[k][1]):
        j, _, nxt = steps[k]
        lines[k] = f"{j},{lines[nxt]}" if nxt >= 0 else str(j)
    for k, ((z, x), flag, step) in enumerate(zip(report.theta, report.flags, steps)):
        lines[k] = (f"{{{z},{x}}} -> distinguishable [witness: u=({lines[k]}),T={step[1]}]" if step
                    else f"{{{z},{x}}} -> {'distinguishable' if flag else 'indistinguishable'}")
    lines.append("verdict: " + ("observable" if report.observable else "not observable"))
    if cs_row is not None:
        lines.append(cs_row.to_text())
    return "\n".join(lines)
