"""Expected `bcn` outputs, computed without the engine under test.

The model's expressions are evaluated here by bit-slicing: each variable
is a Python int whose bit t is its value in column t of the algebraic
form, so one pass over the AST tabulates an expression over all
2^(n+m) (control, state) columns.  Reachability is plain BFS over the
resulting successor table and observability is one backward BFS over
the pair graph.  Nothing here calls the compiler, reach or observe
modules; only the AST node types of the generated model are shared.
"""

from __future__ import annotations

import re
from collections import deque

_TRACEBACK = "Traceback (most recent call last)"
# A witness line as printed by `bcn observability --witness`.
_WITNESS = re.compile(r"^\{(\d+),(\d+)\} -> distinguishable \[witness: u=\(([\d,]*)\),T=(\d+)\]$")


def _planes(e, var_planes: dict, full: int) -> int:
    kind = type(e).__name__
    if kind == "Const":
        return full if e.value else 0
    if kind == "Var":
        return var_planes[e.name]
    if kind == "Not":
        return full ^ _planes(e.operand, var_planes, full)
    a = _planes(e.left, var_planes, full)
    b = _planes(e.right, var_planes, full)
    if kind == "And":
        return a & b
    if kind == "Or":
        return a | b
    if kind == "Xor":
        return a ^ b
    if kind == "Implies":
        return (full ^ a) | b
    if kind == "Iff":
        return full ^ a ^ b
    raise TypeError(f"not an expression node: {e!r}")


def _indices(planes: list[int], width: int) -> list[int]:
    """Per column t, the 1-based basis index of the bit tuple read from
    the planes (first plane most significant, true sorting first)."""
    columns = [format(pl, f"0{width}b")[::-1] for pl in planes]
    out = []
    for t in range(width):
        idx = 0
        for col in columns:
            idx = (idx << 1) | (col[t] == "0")
        out.append(idx + 1)
    return out


def _matrix_text(rows: list[int], cols: int) -> str:
    return "\n".join([f"{len(rows)} {cols}"] + [format(r, f"0{cols}b")[::-1] for r in rows])


class Expected:
    """Everything a correct `bcn` prints for one model and set spec."""

    def __init__(self, model, sets: dict):
        n, m, p = len(model.states), len(model.inputs), len(model.outputs)
        self.n, self.m, self.p = n, m, p
        nn, cc = 1 << n, 1 << m
        self.nn, self.cc = nn, cc
        width = nn * cc
        full = (1 << width) - 1
        # Column t = (j-1)*2^n + (a-1); state bit i sits at position n-1-i
        # of t and input bit i at n+m-1-i, where a 0 bit means true.
        var_planes = {}
        for pos, name in enumerate(reversed(model.inputs + model.states)):
            period = 1 << (pos + 1)
            var_planes[name] = ((1 << (1 << pos)) - 1) * (full // ((1 << period) - 1))
        nxt = _indices([_planes(f, var_planes, full) for f in model.updates], width)
        out = _indices([_planes(h, var_planes, full) for h in model.output_maps], nn)
        # nxt[j][a] and out[a] for 1-based j and a; index 0 is padding.
        self.nxt = [[0] * (nn + 1)] + [[0] + nxt[(j - 1) * nn:j * nn] for j in range(1, cc + 1)]
        self.out = [0] + out
        self.sets = sets
        self._reach()
        self._pairs()
        self._seen: dict[tuple, str | None] = {}

    # -- reachability ------------------------------------------------------

    def _reach(self) -> None:
        nn, cc = self.nn, self.cc
        succ = [()] + [tuple(sorted({self.nxt[j][a] for j in range(1, cc + 1)}))
                       for a in range(1, nn + 1)]
        self.reach = [0] * (nn + 1)  # bit i-1 set: state i reachable in >= 1 step
        for a in range(1, nn + 1):
            seen = 0
            queue = deque(succ[a])
            for b in succ[a]:
                seen |= 1 << (b - 1)
            while queue:
                for c in succ[queue.popleft()]:
                    if not seen >> (c - 1) & 1:
                        seen |= 1 << (c - 1)
                        queue.append(c)
            self.reach[a] = seen
        all_states = (1 << nn) - 1
        self.controllable = all(r == all_states for r in self.reach[1:])
        m_rows = [0] * nn
        c_rows = [0] * nn
        for a in range(1, nn + 1):
            for b in succ[a]:
                m_rows[b - 1] |= 1 << (a - 1)
            for i in range(nn):
                if self.reach[a] >> i & 1:
                    c_rows[i] |= 1 << (a - 1)
        self.m_text = _matrix_text(m_rows, nn)
        self.c_text = _matrix_text(c_rows, nn)
        self.set_controllable = all(
            any(self.reach[a] & sum(1 << (d - 1) for d in dest) for a in init)
            for init in self.sets["initial"] for dest in self.sets["destination"]
        )
        by_output = [0] * (1 << self.p)
        for i in range(1, nn + 1):
            by_output[self.out[i] - 1] |= 1 << (i - 1)
        self.output_controllable = all(
            self.reach[a] & cls for cls in by_output for a in range(1, nn + 1)
        )

    # -- observability -------------------------------------------------------

    def _pairs(self) -> None:
        """Shortest distance from every pair (z, x) into Xi, the pairs with
        differing outputs, by one backward BFS over the pair graph."""
        nn, cc, out = self.nn, self.cc, self.out
        pred = [[[] for _ in range(nn + 1)] for _ in range(cc + 1)]
        for j in range(1, cc + 1):
            row = self.nxt[j]
            for a in range(1, nn + 1):
                pred[j][row[a]].append(a)
        dist = {}
        queue = deque()
        for z in range(1, nn + 1):
            for x in range(1, nn + 1):
                if out[z] != out[x]:
                    dist[(z, x)] = 0
                    queue.append((z, x))
        while queue:
            pair = queue.popleft()
            d = dist[pair] + 1
            for j in range(1, cc + 1):
                for a1 in pred[j][pair[0]]:
                    for a2 in pred[j][pair[1]]:
                        if (a1, a2) not in dist:
                            dist[(a1, a2)] = d
                            queue.append((a1, a2))
        self.theta = [(z, x) for z in range(1, nn + 1) for x in range(z + 1, nn + 1)
                      if out[z] == out[x]]
        self.dist = {pair: dist.get(pair) for pair in self.theta}
        self.observable = all(d is not None for d in self.dist.values())

    def search_visits(self) -> int:
        """Pairs popped by a forward BFS from each Theta pair that stops on
        reaching Xi, summed over Theta: the work of a per-pair search."""
        nxt, out = self.nxt, self.out
        total = 0
        for start in self.theta:
            seen = {start}
            queue = deque((start,))
            while queue:
                a, b = queue.popleft()
                total += 1
                succ = [(nxt[j][a], nxt[j][b]) for j in range(1, self.cc + 1)]
                if any(out[z] != out[x] for z, x in succ):
                    break
                for pair in succ:
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
        return total

    # -- expected stdout -------------------------------------------------------

    def stdout(self, job: str) -> str | None:
        """Exact expected stdout; None for `witness`, which is checked by replay."""
        if job == "compile":
            ls = " ".join(str(self.nxt[j][a]) for j in range(1, self.cc + 1)
                          for a in range(1, self.nn + 1))
            hs = " ".join(map(str, self.out[1:]))
            return (f"n={self.n} m={self.m} p={self.p}\n"
                    f"delta {self.nn} [{ls}]\ndelta {1 << self.p} [{hs}]\n")
        if job == "controllability":
            return ("controllable" if self.controllable else "not controllable") + "\n"
        if job == "emit_matrices":
            return self.stdout("controllability") + f"M:\n{self.m_text}\nC:\n{self.c_text}\n"
        if job == "set_controllability":
            return ("set controllable" if self.set_controllable else "not set controllable") + "\n"
        if job == "output_controllability":
            return ("output controllable" if self.output_controllable
                    else "not output controllable") + "\n"
        if job == "observability":
            lines = [f"{{{z},{x}}} -> " + ("indistinguishable" if d is None else "distinguishable")
                     for (z, x), d in self.dist.items()]
            lines.append("verdict: " + ("observable" if self.observable else "not observable"))
            return "\n".join(lines) + "\n"
        if job == "witness":
            return None
        raise ValueError(f"unknown job {job!r}")

    def _verdict_holds(self, job: str) -> bool:
        return {
            "compile": True,
            "controllability": self.controllable,
            "emit_matrices": self.controllable,
            "set_controllability": self.set_controllable,
            "output_controllability": self.output_controllable,
            "observability": self.observable,
            "witness": self.observable,
        }[job]

    def _check_witnesses(self, stdout: str) -> str | None:
        lines = stdout.split("\n")
        if lines[-1] != "" or len(lines) != len(self.theta) + 2:
            return "witness report has the wrong number of lines"
        for line, (z, x) in zip(lines, self.theta):
            d = self.dist[(z, x)]
            if d is None:
                if line != f"{{{z},{x}}} -> indistinguishable":
                    return f"bad line for indistinguishable pair {{{z},{x}}}: {line!r}"
                continue
            mt = _WITNESS.match(line)
            if not mt or (int(mt[1]), int(mt[2])) != (z, x):
                return f"bad line for distinguishable pair {{{z},{x}}}: {line!r}"
            controls = [int(c) for c in mt[3].split(",") if c]
            if int(mt[4]) != len(controls) or len(controls) != d:
                return f"witness for {{{z},{x}}} is not of the shortest length {d}"
            a, b = z, x
            for c in controls:
                if not 1 <= c <= self.cc:
                    return f"witness for {{{z},{x}}} uses control {c}"
                a, b = self.nxt[c][a], self.nxt[c][b]
            if self.out[a] == self.out[b]:
                return f"witness for {{{z},{x}}} does not reach differing outputs"
        want = "verdict: " + ("observable" if self.observable else "not observable")
        if lines[-2] != want:
            return f"bad verdict line {lines[-2]!r}"
        return None

    def check(self, job: str, code: int | None, stdout: str, stderr: str) -> str | None:
        """None when the job's output is right, else the reason it is not.

        Results are memoised on the exact output, so repeated passes pay
        for each distinct output once."""
        key = (job, code, stdout, _TRACEBACK in stderr)
        if key not in self._seen:
            self._seen[key] = self._check(job, code, stdout, stderr)
        return self._seen[key]

    def _check(self, job, code, stdout, stderr):
        if code is None:
            return "timed out"
        if _TRACEBACK in stderr:
            return "traceback on stderr"
        want_code = 0 if self._verdict_holds(job) else 1
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        want = self.stdout(job)
        if want is None:
            return self._check_witnesses(stdout)
        if stdout != want:
            return "stdout differs from the expected output"
        return None
