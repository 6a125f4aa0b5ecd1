"""Observability decided from state classes; witnesses from a pair-space
search.

Two copies of the network are driven by one shared control sequence; the
joint state (z, x) is one index in 1..2^(2n).  Pairs split into the
diagonal D, the same-output class Theta and the differing-output class Xi;
`partition_pairs` builds Theta and Xi per output class.  The network is
observable exactly when from every Theta pair some control sequence reaches
Xi.  The paired system is read off the 2^n-long state maps:
`extended_system` lists each distinct one but the identity with its first
control, and `_preimages` their predecessor lists.  A Theta pair reaches
Xi exactly when its two states are inequivalent in the Moore machine with
the controls as alphabet and H as output (Zhang & Zhang, IEEE TAC 2016),
so the verdict and its flags come from `_classes`, a partition refinement
of the 2^n states into those equivalence classes, and no 4^n array is
built.  `_search` only writes witnesses: one breadth-first search backward
from Xi finds every distance and witness step and keeps them in flat
per-pair arrays; `_walk` follows them from one pair.  `render_report`
writes the report to a stream as it walks Theta per z, each witness from
those arrays.  `distinguishing_witness` searches forward from its one
pair instead.  The dense cross-check is `paper.dense_verdict_row`.  Only
the witness searches reach into the pair space, so only they meet
`check_size`'s pair-space guard: before the search, and after `_search`
for too many witness controls.
"""

from __future__ import annotations

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
    rest.  xi holds both orientations; Theta is derived from `outputs`.
    The witness search reads only xi; `paper` builds D and Theta's pair
    indices for the tests."""

    n: int
    outputs: tuple[int, ...]  # H's column per state
    xi: frozenset[int]

    @property
    def theta(self) -> tuple[tuple[int, int], ...]:
        """The z < x same-output pairs: z ascending, then x ascending."""
        return tuple((z, x) for z, xs in _theta_rows(self.outputs) for x in xs)


def _theta_rows(outputs: tuple[int, ...]):
    """Theta per z, ascending: (z, the states x > z with z's output,
    ascending), 1-based, from each state's output column."""
    classes: dict[int, list[int]] = {}  # output column -> its states, ascending
    for x, h in enumerate(outputs, 1):
        classes.setdefault(h, []).append(x)
    for z, h in enumerate(outputs, 1):
        same = classes[h]
        yield z, same[same.index(z) + 1:]


def partition_pairs(form: AlgebraicForm) -> PairPartition:
    outputs = form.H.col_index
    nn = len(outputs)
    others = {h: [x for x, hx in enumerate(outputs, 1) if hx != h] for h in set(outputs)}
    xi = []
    for z, h in enumerate(outputs, 1):
        xi += map(((z - 1) * nn).__add__, others[h])  # pair_index(z, x, n)
    return PairPartition(n=form.n, outputs=outputs, xi=frozenset(xi))


def extended_system(form: AlgebraicForm) -> list[tuple[int, tuple[int, ...]]]:
    """The paired system, control j sending (z, x) to (L_j z, L_j x), as
    (j, L_j) per distinct state map in `form.state_maps` order, j its first
    control.  The identity is left out: it sends every pair to itself."""
    identity = tuple(range(1, form.state_count + 1))
    return [(j, succ) for succ, j in form.state_maps().items() if succ != identity]


def _preimages(ext: list[tuple[int, tuple[int, ...]]], nn: int) -> list[tuple[int, list[list[int]]]]:
    """(j, pre) per map of `extended_system`, in its order: pre[s] lists,
    ascending, the 0-based states that L_j sends to the 0-based state s."""
    preimages = []
    for j, succ in ext:
        pre: list[list[int]] = [[] for _ in range(nn)]
        for a, s in enumerate(succ):
            pre[s - 1].append(a)
        preimages.append((j, pre))
    return preimages


def _classes(ext: list[tuple[int, tuple[int, ...]]], outputs: tuple[int, ...]) -> list[int]:
    """A class id per 0-based state, two states sharing one exactly when no
    control sequence makes their outputs differ: Hopcroft's refinement
    (1971) of the states grouped by output column, under the maps of
    `extended_system` (the identity splits nothing), on the refinable
    partition of Valmari & Lehtinen (STACS 2008).  Block b holds
    elems[first[b]:end[b]], the states marked under the current map first,
    up to mid[b].  A split makes the smaller part the new block, so it
    costs O(that part), at most O(marked), and the new block is the one
    to queue as a splitter (the smaller-half rule).  The largest initial
    block is never queued: the maps are total, so its preimage is the
    complement of the other blocks' preimages."""
    nn = len(outputs)
    groups: dict[int, list[int]] = {}
    for s, h in enumerate(outputs):
        groups.setdefault(h, []).append(s)
    elems: list[int] = []
    first, end, block, loc = [], [], [0] * nn, [0] * nn
    for b, members in enumerate(groups.values()):
        first.append(len(elems))
        for s in members:
            block[s], loc[s] = b, len(elems)
            elems.append(s)
        end.append(len(elems))
    mid = first[:]
    work = sorted(range(len(first)), key=lambda b: end[b] - first[b])[:-1]  # every block but the largest
    pres = [pre for _, pre in _preimages(ext, nn)]
    while work:
        b = work.pop()
        splitter = elems[first[b]:end[b]]  # a copy: marking reorders elems, this block's part too
        for pre in pres:
            touched = []
            for t in splitter:
                for s in pre[t]:  # each state once per map: it has one successor
                    c = block[s]
                    i, j = loc[s], mid[c]
                    if j == first[c]:
                        touched.append(c)
                    mid[c] = j + 1
                    elems[i] = r = elems[j]  # swap s into the marked prefix
                    loc[r] = i
                    elems[j], loc[s] = s, j
            for c in touched:
                f, j, e = first[c], mid[c], end[c]
                if j == e:  # every state marked: no split
                    mid[c] = f
                    continue
                new = len(first)
                if j - f <= e - j:  # the marked part is the smaller
                    first.append(f)
                    end.append(j)
                    first[c] = mid[c] = j
                else:
                    first.append(j)
                    end.append(e)
                    end[c], mid[c] = j, f
                mid.append(first[new])
                for k in range(first[new], end[new]):
                    block[elems[k]] = new
                work.append(new)
    return block


class ObservabilityReport(Record):
    """The verdict from `_classes` and, with witnesses, `_search`'s arrays
    (else empty).  Theta, its flags and its witnesses are derived per z
    from `outputs`, in `partition_pairs`'s order."""

    observable: bool  # every state in a class of its own
    outputs: tuple[int, ...]  # H's column per state
    classes: tuple[int, ...]  # the class id per 0-based state
    n: int
    m: int
    dist: tuple[int, ...]
    via: tuple[int, ...]
    toward: tuple[int, ...]
    order: tuple[int, ...]

    theta = PairPartition.theta  # read from `outputs`, as the partition reads it

    @property
    def flags(self) -> tuple[bool, ...]:
        """Distinguishable, per Theta pair: its two states lie in two classes."""
        cls = self.classes
        return tuple(cls[z - 1] != cls[x - 1] for z, xs in _theta_rows(self.outputs) for x in xs)

    @property
    def witnesses(self) -> tuple[tuple[tuple[int, ...], int] | None, ...]:
        """(controls, T) per Theta pair, or None; all None without witnesses."""
        if not self.order:
            return (None,) * len(self.theta)
        nn = 1 << self.n
        return tuple(_walk(self.dist, self.via, self.toward, (z - 1) * nn + x - 1) for z, x in self.theta)


def _search(ext: list[tuple[int, tuple[int, ...]]], part: PairPartition):
    """One breadth-first search backward from Xi over the z < x pairs (the
    copies' swap maps the pair graph onto itself), under the controls of
    `extended_system`, tried in ascending order: a pair is first reached
    through the smallest control that brings it one step closer, the step
    of the lexicographically smallest shortest witness (which
    `distinguishing_witness` finds forward).  Returns dist, item z*2^n + x
    (0-based, z < x) the pair's distance to Xi, else -1; per reached pair
    w that control via[w] and the pair toward[w] it leads to; and the
    reached pairs in ascending T."""
    nn = 1 << part.n
    preimages = _preimages(ext, nn)
    via, toward = [0] * (nn * nn), [0] * (nn * nn)
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
    """A Theta pair is distinguishable exactly when its two states lie in
    two classes, so the network is observable exactly when every state
    has a class of its own.  With witnesses, `_search` runs as well and
    the report keeps its arrays; the pairs it reaches are exactly the
    distinguishable Theta pairs, so their distances sum to the witness
    controls."""
    if form.p == 0:
        raise ValueError("observability needs at least one output")
    ext = extended_system(form)
    outputs = form.H.col_index
    classes = tuple(_classes(ext, outputs))
    arrays = ((),) * 4
    if want_witnesses:
        check_size(form.n, form.m, form.p, ("pairs",))  # before anything of pair-space size
        dist, via, toward, order = _search(ext, partition_pairs(form))
        check_size(form.n, form.m, form.p, ("pairs",), witness_steps=sum(dist[w] for w in order))
        arrays = map(tuple, (dist, via, toward, order))
    return ObservabilityReport(len(set(classes)) == len(outputs), outputs, classes, form.n, form.m, *arrays)


def distinguishing_witness(form: AlgebraicForm, z0: int, x0: int) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically smallest shortest control sequence whose joint
    trajectory from (z0, x0) lands in Xi, or None if unreachable: a
    breadth-first search forward from the one pair, taken as z < x
    (swapping the copies maps witnesses onto witnesses).  Each level is
    expanded in discovery order and each pair under the maps of
    `extended_system` by ascending first control, and the first visit
    wins, so the pairs of a level are found in the order of their
    smallest paths and the first Xi pair found ends the witness `_search`
    would give.  A pair already in Xi yields the empty sequence, T = 0."""
    if z0 == x0:
        raise ValueError("witness requires two distinct initial states")
    pair_index(z0, x0, form.n)  # its IndexError, before any pair-space work
    check_size(form.n, form.m, form.p, ("pairs",))  # the search may reach every pair
    outputs, nn = form.H.col_index, form.state_count
    z0, x0 = min(z0, x0), max(z0, x0)
    if outputs[z0 - 1] != outputs[x0 - 1]:
        return (), 0
    ext = extended_system(form)
    came: dict[int, tuple[int, int] | None] = {(z0 - 1) * nn + x0: None}  # pair_index -> (from, control)
    level = [(z0, x0)]
    while level:
        found = []
        for z, x in level:
            here = (z - 1) * nn + x
            for j, succ in ext:
                a, b = succ[z - 1], succ[x - 1]
                if a == b:  # the diagonal never leaves itself
                    continue
                if a > b:
                    a, b = b, a
                if (w := (a - 1) * nn + b) in came:
                    continue
                came[w] = here, j
                if outputs[a - 1] != outputs[b - 1]:
                    controls = []
                    while (step := came[w]) is not None:
                        w, j = step
                        controls.append(j)
                    return tuple(reversed(controls)), len(controls)
                found.append((a, b))
        level = found
    return None


def render_report(report: ObservabilityReport, out, emit: bool = False) -> None:
    """Write one line per Theta pair to `out`, walked per z from the
    outputs, each z's lines before the next z's are built; then the global
    verdict and, with `emit` and Theta not empty, the C_S row, again per z:
    the 1 x |Theta| flags in `BooleanMatrix.to_text` form.  A pair the
    search reached gets its witness, any other pair a flag from two class
    ids.  Witness texts are built in the search's order, ascending T, each
    as its control and the text of the pair one step on, every int through
    one str table; each line releases its text."""
    cls, dist, via, toward, order = report.classes, report.dist, report.via, report.toward, report.order
    nn = 1 << report.n
    top = max(nn, 1 << report.m, dist[order[-1]]) if order else nn  # the largest int written
    names = [str(i) for i in range(top + 1)]
    text = [""] * (nn * nn) if order else ()  # "" in Xi and for pairs the search did not reach
    for w in order:
        t = text[toward[w]]
        text[w] = f"{names[via[w]]},{t}" if t else names[via[w]]
    flag, size = ("distinguishable\n", "indistinguishable\n"), 0  # indexed by "the two share a class"
    for z, xs in _theta_rows(report.outputs):
        head, c, base, lines = f"{{{names[z]},", cls[z - 1], (z - 1) * nn - 1, []
        size += len(xs)
        for x in xs:
            if text and (t := text[w := base + x]):
                lines.append(f"{head}{names[x]}}} -> distinguishable [witness: u=({t}),T={names[dist[w]]}]\n")
                text[w] = ""
            else:
                lines.append(f"{head}{names[x]}}} -> {flag[cls[x - 1] == c]}")
        out.write("".join(lines))
    out.write("verdict: " + ("observable\n" if report.observable else "not observable\n"))
    if emit and size:
        out.write(f"1 {size}\n")
        for z, xs in _theta_rows(report.outputs):
            c = cls[z - 1]
            out.write("".join("0" if cls[x - 1] == c else "1" for x in xs))
        out.write("\n")
