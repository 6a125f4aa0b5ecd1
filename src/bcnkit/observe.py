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
the distances.  Swapping the two copies maps the pair graph onto
itself, so (z, x) and (x, z) share their witness.  The report keeps one
step per Theta representative (first control, T, the representative one
step closer): a tree rooted in Xi, whose texts, rendered in ascending T,
share their suffixes.  The dense closure (`dense_verdict_row`) of the
paired system stays as the paper's cross-check.  `check_size` refuses
a pair space too large for memory before building it, and too many
witness controls after the search.
"""

from __future__ import annotations

from .boolmat import BooleanMatrix
from .compiler import AlgebraicForm, SizeLimitError, check_size
from .reach import SetFamily, StateSet, controllability_matrix, index_matrix, set_controllability_matrix
from .record import Record

def pair_index(z: int, x: int, n: int) -> int:
    """Index of the joint state (z, x) in 1..2^(2n): (z-1)*2^n + x."""
    nn = 1 << n
    if not (1 <= z <= nn and 1 <= x <= nn):
        raise IndexError(f"pair ({z},{x}) outside 1..{nn}")
    return (z - 1) * nn + x


class PairPartition(Record):
    """D / Theta / Xi split of the 2^(2n) joint indices.

    theta holds only the z < x representatives, in ascending pair-index
    order; theta_ordered and xi hold both orientations.
    """

    __slots__ = ("n", "diagonal", "theta", "theta_ordered", "xi")
    n: int
    diagonal: frozenset[int]
    theta: tuple[tuple[int, int], ...]
    theta_ordered: frozenset[int]
    xi: frozenset[int]

    @property
    def theta_indices(self) -> tuple[int, ...]:
        return tuple(pair_index(z, x, self.n) for z, x in self.theta)


def partition_pairs(form: AlgebraicForm) -> PairPartition:
    outputs = form.H.col_index
    diag = []
    theta = []
    theta_all = []
    xi = []
    w = 0
    for z, hz in enumerate(outputs, start=1):
        for x, hx in enumerate(outputs, start=1):
            w += 1  # pair_index(z, x, n)
            if z == x:
                diag.append(w)
            elif hz == hx:
                theta_all.append(w)
                if z < x:
                    theta.append((z, x))
            else:
                xi.append(w)
    return PairPartition(
        n=form.n,
        diagonal=frozenset(diag),
        theta=tuple(theta),
        theta_ordered=frozenset(theta_all),
        xi=frozenset(xi),
    )


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


def _first_step(ext: PairMaps, dist: list[int], w: int) -> tuple[int, int]:
    """The smallest control j that moves the 0-based pair w (at a positive
    distance) one step closer to Xi, and the 0-based pair it moves to.
    Taking it at every step spells the lexicographically smallest shortest
    sequence, the one a forward breadth-first search trying controls in
    ascending order would find."""
    d = dist[w] - 1
    return next((j, mp[w] - 1) for j, mp in enumerate(ext, start=1) if dist[mp[w] - 1] == d)


def observability_verdict(form: AlgebraicForm, want_witnesses: bool = False) -> ObservabilityReport:
    """Distances to Xi of every pair from one backward search; a Theta
    representative is distinguishable exactly when its distance is
    positive (Theta and Xi are disjoint, so T >= 1)."""
    if form.p == 0:
        raise ValueError("observability needs at least one output")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    part = partition_pairs(form)
    dist = _distances(ext, part.xi)
    reps = [pair_index(z, x, form.n) - 1 for z, x in part.theta]
    flags = tuple(dist[w] > 0 for w in reps)
    steps: list[tuple[int, int, int] | None] = [None] * len(reps)
    if want_witnesses:
        check_size(form.n, form.m, form.p, ("pairs",), witness_steps=sum(max(dist[w], 0) for w in reps))
        nn = form.state_count
        position = {w: k for k, w in enumerate(reps)}
        for k, w in enumerate(reps):
            if dist[w] > 0:
                j, nxt = _first_step(ext, dist, w)
                z, x = sorted(divmod(nxt, nn))
                steps[k] = (j, dist[w], position[z * nn + x] if dist[nxt] else -1)
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
        j, w = _first_step(ext, dist, w)
        controls.append(j)
    return tuple(controls), len(controls)


def dense_verdict_row(form: AlgebraicForm) -> BooleanMatrix:
    """Cross-check engine: the 1 x |Theta| set-controllability row
    Jd^T * C_ext * J0 computed with dense closure on the pair space.
    Only viable for small pair spaces (2n <= 12)."""
    check_size(form.n, form.m, form.p, ("dense_row",))
    m_ext = BooleanMatrix.from_columns(1 << (2 * form.n), list(zip(*extended_system(form))))
    c_ext = controllability_matrix(m_ext)
    p0, pd = observability_setup(partition_pairs(form))
    return set_controllability_matrix(c_ext, index_matrix(p0), index_matrix(pd))


def render_report(report: ObservabilityReport, cs_row: BooleanMatrix | None = None) -> str:
    """One line per Theta representative, then the global verdict.  Built in ascending T,
    a witness text is its first control, then the text of the representative one step on."""
    steps = report.steps
    text = [""] * len(steps)
    for k in sorted((k for k, step in enumerate(steps) if step), key=lambda k: steps[k][1]):
        j, _, nxt = steps[k]
        text[k] = f"{j},{text[nxt]}" if nxt >= 0 else str(j)
    lines = []
    for (z, x), flag, step, wit in zip(report.theta, report.flags, steps, text):
        line = f"{{{z},{x}}} -> " + ("distinguishable" if flag else "indistinguishable")
        if step:
            line += f" [witness: u=({wit}),T={step[1]}]"
        lines.append(line)
    lines.append("verdict: " + ("observable" if report.observable else "not observable"))
    if cs_row is not None:
        lines.append(cs_row.to_text())
    return "\n".join(lines)
