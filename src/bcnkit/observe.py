"""Observability decided through pair-space reachability.

Two copies of the network are driven by one shared control sequence; the
joint state (z, x) is one index in 1..2^(2n).  Pairs split into the
diagonal D, the same-output class Theta and the differing-output class Xi;
`partition_pairs` builds Theta and Xi per output class.  The network is
observable exactly when from every Theta pair some control sequence reaches
Xi; a shortest such sequence is a distinguishing witness.  The paired
system is read off the 2^n-long state maps: `extended_system` lists each
distinct one but the identity with its first control, and builds no pair
map.  `_search` finds every distance and every witness step in one
breadth-first search backward from Xi under those controls, and keeps
them in flat per-pair arrays, the steps only when witnesses are asked
for: `_walk` follows them from one pair, and `render_report` writes every
witness from them.  The dense cross-check is `paper.dense_verdict_row`.
`check_size` refuses a pair space too large for memory before building
it, and too many witness controls after.
"""

from __future__ import annotations

from itertools import repeat

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
    these two; `paper` builds D and Theta's pair indices for the tests."""

    __slots__ = ("n", "theta", "xi")
    n: int
    theta: tuple[tuple[int, int], ...]
    xi: frozenset[int]


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


def extended_system(form: AlgebraicForm) -> list[tuple[int, tuple[int, ...]]]:
    """The paired system, control j sending (z, x) to (L_j z, L_j x), as
    (j, L_j) per distinct state map in `form.state_maps` order, j its first
    control.  The identity is left out: it sends every pair to itself.
    Refuses a model whose pair space would not fit in `compiler.MAX_BYTES`,
    before any of it is built."""
    check_size(form.n, form.m, form.p, ("pairs",))
    identity = tuple(range(1, form.state_count + 1))
    return [(j, succ) for succ, j in form.state_maps().items() if succ != identity]


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


def _search(ext: list[tuple[int, tuple[int, ...]]], part: PairPartition, witnesses: bool):
    """One breadth-first search backward from Xi over the z < x pairs (the
    copies' swap maps the pair graph onto itself), under the controls of
    `extended_system`, tried in ascending order: a pair is first reached
    through the smallest control that brings it one step closer, the step
    of the lexicographically smallest shortest witness.  This is the one
    place that step rule lives.  Returns dist, item z*2^n + x (0-based,
    z < x) the pair's distance to Xi, else -1; with witnesses, per reached
    pair w that control via[w] and the pair toward[w] it leads to (else
    both are empty, never stored); and the reached pairs in ascending T."""
    nn = 1 << part.n
    preimages = []
    for j, succ in ext:
        pre: list[list[int]] = [[] for _ in range(nn)]
        for a, s in enumerate(succ):
            pre[s - 1].append(a)
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
