"""Observability decided through pair-space reachability.

Two copies of the network are driven by one shared control sequence; the
joint state (z, x) is one index in 1..2^(2n).  Pairs split into the
diagonal D, the same-output class Theta and the differing-output class Xi;
`partition_pairs` builds Theta and Xi per output class.  The network is
observable exactly when from every Theta pair some control sequence reaches
Xi; a shortest such sequence is a distinguishing witness.  `_search` finds
every distance and every witness step in one breadth-first search backward
from Xi, skipping any control whose state map is the identity, and keeps
them in flat per-pair arrays, the steps only when witnesses are asked
for: `_walk` follows them from one pair, and `render_report` writes every
witness from them.  `dense_verdict_row` is the paper's dense cross-check.
`check_size` refuses a pair space too large for memory before building
it, and too many witness controls after.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

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
    rest.  theta holds only the z < x representatives, in ascending
    pair-index order; xi holds both orientations.  The verdict reads only
    these two, so `diagonal` and `theta_ordered` are built on demand."""

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
    states = range(1, nn + 1)
    classes: dict[int, list[int]] = {}  # output column -> its states, ascending
    for x, h in zip(states, outputs):
        classes.setdefault(h, []).append(x)
    others = {h: [x for x, hx in zip(states, outputs) if hx != h] for h in classes}
    theta, xi = [], []
    for z, h in zip(states, outputs):
        same = classes[h]
        theta += zip(repeat(z), same[same.index(z) + 1:])
        xi += map(((z - 1) * nn).__add__, others[h])  # pair_index(z, x, n)
    return PairPartition(n=form.n, theta=tuple(theta), xi=frozenset(xi))


#: Per-control successor maps on the pair space, kept as index arrays
#: (never dense 2^(2n) x 2^(2n) bits): item j-1 maps the 0-based pair
#: w-1 to the 1-based pair reached from pair w under control j.  The
#: identity map is a `range`, never built.
PairMaps = tuple[Sequence[int], ...]


def extended_system(form: AlgebraicForm) -> PairMaps:
    """Pair each control's successor slice of L with itself: control j
    sends (z, x) to (L_j z, L_j x), enumerated directly.  Controls with the
    same state map share one pair map, and the identity's is
    `range(1, 4^n + 1)`.  Refuses a model whose pair space would not fit
    in `compiler.MAX_BYTES`, before any of it is built."""
    check_size(form.n, form.m, form.p, ("pairs",))
    nn = form.state_count
    built: dict[tuple[int, ...], Sequence[int]] = {tuple(range(1, nn + 1)): range(1, nn * nn + 1)}
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
    p0 = SetFamily(universe, tuple(StateSet(universe, (w,)) for w in part.theta_indices))
    pd = SetFamily(universe, (StateSet(universe, tuple(sorted(part.xi))),))
    return p0, pd


class ObservabilityReport(Record):
    """With witnesses, `_search`'s arrays (else empty); `witnesses` walks them."""

    __slots__ = ("observable", "theta", "flags", "n", "m", "dist", "via", "toward", "order")
    observable: bool
    theta: tuple[tuple[int, int], ...]
    flags: tuple[bool, ...]  # distinguishable, per theta representative
    n: int
    m: int
    dist: tuple[int, ...]
    via: tuple[int, ...]
    toward: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def witnesses(self) -> tuple[tuple[tuple[int, ...], int] | None, ...]:
        """(controls, T) per representative, or None; all None without witnesses."""
        if not self.order:
            return (None,) * len(self.theta)
        nn = 1 << self.n
        return tuple(_walk(self.dist, self.via, self.toward, (z - 1) * nn + x - 1) for z, x in self.theta)


def _search(ext: PairMaps, part: PairPartition, witnesses: bool):
    """One breadth-first search backward from Xi over the z < x pairs (the
    copies' swap maps the pair graph onto itself), under the first control
    of each distinct state map, tried in ascending order: a pair is first
    reached through the smallest control that brings it one step closer,
    the step of the lexicographically smallest shortest witness.  This is
    the one place that step rule lives.  A control whose state map is the
    identity is skipped: each pair is its own preimage under it, already
    reached.  Returns dist, item z*2^n + x (0-based, z < x) the pair's
    distance to Xi, else -1; with witnesses, per reached pair w that
    control via[w] and the pair toward[w] it leads to (else both are
    empty, never stored); and the reached pairs in ascending T."""
    nn = 1 << part.n
    first: dict[Sequence[int], int] = {}
    for j, mp in enumerate(ext, start=1):
        first.setdefault(mp, j)  # dict.fromkeys(ext), with each map's first control
    identity = [*range(1, nn * nn + 1, nn + 1)]  # the identity map's diagonal
    preimages = []
    for mp, j in first.items():
        diag = mp[::nn + 1]  # diag[a] = pair_index(s, s), s = L_j a
        if [*diag] == identity:  # a range or a tuple
            continue
        pre: list[list[int]] = [[] for _ in range(nn)]
        for a, w in enumerate(diag):
            pre[(w - 1) // (nn + 1)].append(a)
        preimages.append((j, pre))
    via, toward = ([0] * (nn * nn), [0] * (nn * nn)) if witnesses else ([], [])
    order = []
    dist = [-1] * (nn * nn)
    vs = [v for v in (w - 1 for w in part.xi) if v // nn < v % nn]
    for v in vs:
        dist[v] = 0
    zs, xs, d = [v // nn for v in vs], [v % nn for v in vs], 0
    while vs:  # the frontier: pair vs[i] is (zs[i], xs[i])
        d += 1
        size, az, ax = len(order), [], []
        for j, pre in preimages:
            for z, x, v in zip(zs, xs, vs):
                for a in pre[z]:
                    for b in pre[x]:
                        w = a * nn + b if a < b else b * nn + a
                        if dist[w] < 0:
                            dist[w] = d
                            if witnesses:
                                via[w] = j
                                toward[w] = v
                            order.append(w)
                            az.append(a)
                            ax.append(b)
        zs, xs, vs = az, ax, order[size:]
    return dist, via, toward, order


def _walk(dist, via, toward, w: int) -> tuple[tuple[int, ...], int] | None:
    """The witness of the 0-based z < x pair w, as (controls, T): follow
    `_search`'s via/toward from w into Xi.  None if the search never
    reached w."""
    if (t := dist[w]) < 0:
        return None
    controls = []
    for _ in range(t):
        controls.append(via[w])
        w = toward[w]
    return tuple(controls), t


def observability_verdict(form: AlgebraicForm, want_witnesses: bool = False) -> ObservabilityReport:
    """A Theta representative is distinguishable exactly when the search
    reaches it (Theta and Xi are disjoint, so T >= 1); with witnesses, the
    report keeps the arrays the search recorded."""
    if form.p == 0:
        raise ValueError("observability needs at least one output")
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    part = partition_pairs(form)
    dist, via, toward, order = _search(ext, part, want_witnesses)
    nn = form.state_count
    ts = [dist[(z - 1) * nn + x - 1] for z, x in part.theta]
    flags = tuple([t > 0 for t in ts])
    if want_witnesses:
        check_size(form.n, form.m, form.p, ("pairs",), witness_steps=sum([t for t in ts if t > 0]))
    arrays = map(tuple, (dist, via, toward, order)) if want_witnesses else ((),) * 4
    return ObservabilityReport(all(flags), part.theta, flags, form.n, form.m, *arrays)


def distinguishing_witness(form: AlgebraicForm, z0: int, x0: int) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically smallest shortest control sequence whose joint
    trajectory from (z0, x0) lands in Xi, or None if unreachable: `_walk`
    follows the search's steps from the pair, taken as z < x (swapping
    the copies maps witnesses onto witnesses).  A pair already in Xi has
    distance 0 and yields the empty sequence with T = 0."""
    if z0 == x0:
        raise ValueError("witness requires two distinct initial states")
    pair_index(z0, x0, form.n)  # its IndexError, before any pair-space work
    ext = extended_system(form)  # its size guard must run before partition_pairs allocates O(4^n)
    dist, via, toward, _ = _search(ext, partition_pairs(form), True)
    return _walk(dist, via, toward, pair_index(min(z0, x0), max(z0, x0), form.n) - 1)


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
    """One line per Theta representative, then the global verdict.  Witness
    texts are built in the search's order, ascending T, each as its control
    and the text of the pair one step on, every int through one str table;
    each line then releases its text, so the two are never all held."""
    theta, dist, via, toward, order = report.theta, report.dist, report.via, report.toward, report.order
    nn = 1 << report.n
    top = max(nn, 1 << report.m, dist[order[-1]]) if order else nn  # the largest int written
    names = [str(i) for i in range(top + 1)]
    if not order:
        lines = [f"{{{names[z]},{names[x]}}} -> {'distinguishable' if flag else 'indistinguishable'}"
                 for (z, x), flag in zip(theta, report.flags)]
    else:
        text = [""] * (nn * nn)  # "" in Xi and for pairs the search did not reach
        for w in order:
            t = text[toward[w]]
            text[w] = f"{names[via[w]]},{t}" if t else names[via[w]]
        lines = [""] * len(theta)
        for k, (z, x) in enumerate(theta):
            w = (z - 1) * nn + x - 1
            if t := text[w]:
                lines[k] = f"{{{names[z]},{names[x]}}} -> distinguishable [witness: u=({t}),T={names[dist[w]]}]"
                text[w] = ""
            else:
                lines[k] = f"{{{names[z]},{names[x]}}} -> indistinguishable"
        del text  # its 4^n slots, before the join
    lines.append("verdict: " + ("observable" if report.observable else "not observable"))
    if cs_row is not None:
        lines.append(cs_row.to_text())
    return "\n".join(lines)
