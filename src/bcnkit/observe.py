"""Observability decided through pair-space reachability.

Two copies of the network are driven by one shared control sequence; the
joint state (z, x) is a single index in 1..2^(2n).  Pairs split into the
diagonal D, the same-output off-diagonal class Theta, and the
differing-output class Xi.  The network is observable exactly when from
every Theta pair some control sequence reaches Xi; a shortest such
sequence is a distinguishing witness.

Swapping the two copies maps the pair graph onto itself, so (z, x) and
(x, z) share their distance and witness, and controls that share a state
map are interchangeable.  `_search` is one multi-source breadth-first
search backward from Xi over the z < x representatives, under the first
control of each distinct map: the predecessors of (z', x') are
pre_j(z') x pre_j(x'), read off the diagonal of control j's pair map.
Each level tries the controls in ascending order, so a representative is
first reached through the smallest control that brings it one step
closer to Xi.  Taking that control at every step spells the
lexicographically smallest shortest sequence, the witness.  The search
records, per Theta representative, that control, the distance T and the
representative one step closer: every verdict, and a tree rooted in Xi
whose texts, rendered in ascending T, share their suffixes.
`distinguishing_witness` walks its one pair by the same rule, looked up
in the distances.  The dense closure (`dense_verdict_row`) of the paired
system stays as the paper's cross-check; it and `observability_setup`
import `reach` when called, so the verdict path does not load it.
`check_size` refuses a pair space too large for memory before building
it, and too many witness controls after the search.
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
    states = list(zip(range(1, nn + 1), outputs))  # one int object per state, shared by its pairs
    for z, hz in states:
        w = (z - 1) * nn  # pair_index(z, x, n) - x
        for x, hx in states:
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
    sends (z, x) to (L_j z, L_j x), enumerated directly.  Controls with the
    same state map share one pair map.  Refuses a model whose pair space
    would not fit in `compiler.MAX_BYTES`, before any of it is built."""
    check_size(form.n, form.m, form.p, ("pairs",))
    nn = form.state_count
    built: dict[tuple[int, ...], tuple[int, ...]] = {}
    maps = []
    for succ in map(form.successors, range(1, form.control_count + 1)):
        if succ not in built:
            built[succ] = tuple([base + sx for base in [(sz - 1) * nn for sz in succ] for sx in succ])
        maps.append(built[succ])
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


def _search(ext: PairMaps, part: PairPartition, record: bool) -> tuple[list[int], list]:
    """One breadth-first search backward from Xi over the z < x
    representatives.  Returns dist, whose item z*2^n + x (0-based states,
    z < x) is that pair's distance to Xi, -1 when Xi is out of reach, and
    -1 on the diagonal; and, if `record`, per Theta representative its
    step: (the smallest control that brings it one step closer, T, the
    position in part.theta of the representative it moves to, -1 in Xi),
    or None."""
    nn = 1 << part.n
    first: dict[tuple[int, ...], int] = {}
    for j, mp in enumerate(ext, start=1):
        first.setdefault(mp, j)  # dict.fromkeys(ext), with each map's first control
    preimages = []
    for mp, j in first.items():
        pre: list[list[int]] = [[] for _ in range(nn)]
        for a, w in enumerate(mp[::nn + 1]):  # w = pair_index(s, s), s = L_j a
            pre[(w - 1) // (nn + 1)].append(a)
        preimages.append((j, pre))
    steps: list[tuple[int, int, int] | None] = []
    if record:
        steps = [None] * len(part.theta)
        position = [-1] * (nn * nn)  # pair z*2^n + x, z < x, to its place in part.theta
        for k, (z, x) in enumerate(part.theta):
            position[(z - 1) * nn + x - 1] = k
    dist = [-1] * (nn * nn)
    frontier = [(v // nn, v % nn, v) for v in (w - 1 for w in part.xi) if v // nn < v % nn]
    for _, _, v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        d += 1
        reached = []
        for j, pre in preimages:
            for z, x, v in frontier:
                for a in pre[z]:
                    for b in pre[x]:
                        w = a * nn + b if a < b else b * nn + a
                        if dist[w] < 0:
                            dist[w] = d
                            reached.append((a, b, w))
                            if record:
                                steps[position[w]] = (j, d, position[v])
        frontier = reached
    return dist, steps


def observability_verdict(form: AlgebraicForm, want_witnesses: bool = False) -> ObservabilityReport:
    """A Theta representative is distinguishable exactly when the search
    reaches it (Theta and Xi are disjoint, so T >= 1); with witnesses, the
    report keeps the steps the search recorded."""
    if form.p == 0:
        raise ValueError("observability needs at least one output")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    part = partition_pairs(form)
    dist, steps = _search(ext, part, want_witnesses)
    nn = form.state_count
    ts = [dist[(z - 1) * nn + x - 1] for z, x in part.theta]
    flags = tuple([t > 0 for t in ts])
    if want_witnesses:
        check_size(form.n, form.m, form.p, ("pairs",), witness_steps=sum([t for t in ts if t > 0]))
    return ObservabilityReport(
        observable=all(flags),
        theta=part.theta,
        flags=flags,
        steps=tuple(steps) if want_witnesses else (None,) * len(ts),
    )


def distinguishing_witness(
    form: AlgebraicForm, z0: int, x0: int
) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically smallest shortest control sequence whose joint
    trajectory from (z0, x0) lands in Xi, or None if unreachable: each
    step takes the smallest control whose successor pair is one step
    closer, by the search's distances.  A pair already in Xi yields the
    empty sequence with T = 0."""
    if z0 == x0:
        raise ValueError("witness requires two distinct initial states")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    dist, _ = _search(ext, partition_pairs(form), False)
    nn, out = form.state_count, form.H.col_index

    def distance(v: int) -> int:  # v is a 0-based pair index
        z, x = sorted(divmod(v, nn))
        return 0 if out[z] != out[x] else dist[z * nn + x]

    v = pair_index(z0, x0, form.n) - 1
    if (t := distance(v)) < 0:
        return None
    controls = []
    for closer in range(t - 1, -1, -1):
        j, v = next((j, mp[v] - 1) for j, mp in enumerate(ext, start=1) if distance(mp[v] - 1) == closer)
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
