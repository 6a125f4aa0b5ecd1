"""Seeded input generators for the bcn benchmark.

Each workload is a list of model groups.  A group is one `.bcn` model,
its set-specification file, and the subcommands run on it.  Everything is
drawn from ``random.Random`` seeded by the workload name and ``--seed``,
so the same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import check
from bcnkit import netlang, oracle

#: Subcommand argv tails; MODEL and SETS are replaced by file paths.
JOB_ARGS = {
    "compile": ["compile", "MODEL"],
    "controllability": ["controllability", "MODEL"],
    "emit_matrices": ["controllability", "MODEL", "--emit-matrices"],
    "set_controllability": ["set-controllability", "MODEL", "--sets", "SETS"],
    "output_controllability": ["output-controllability", "MODEL"],
    "observability": ["observability", "MODEL"],
    "witness": ["observability", "MODEL", "--witness"],
}
REACH_JOBS = ("compile", "controllability", "emit_matrices",
              "set_controllability", "output_controllability")
OBSERVE_JOBS = ("observability", "witness")
ALL_JOBS = REACH_JOBS + OBSERVE_JOBS

# Sizes.  The counter needs 2^n - 1 closure rounds, so its reach jobs use
# n = 9 (about 0.2 s of closure) while its 2^(2n) pair search runs at
# n = 7 (about 0.5 s).  The seeded workloads keep a pass short enough to
# repeat every job several times within a 40 s run:
# * `random` stays at n = 5.  Its per-model search cost is heavy-tailed;
#   at n = 6 one draw in fifty spends 1-5 s in observability and witness
#   search, which alone moves `pass_s` by a quarter from seed to seed.
# * `wide` uses n = 3, m = 9 (4096 columns).  At n = 4 a draw with a
#   constant output spends up to 3 s in the pair search, so the search
#   rather than compilation would dominate.  Compilation time grows with
#   the size of the update rules and depth 5 is only an upper bound, so
#   only draws whose three rules total 39-41 AST nodes are kept; with a
#   wider band the per-seed cost spread swamps everything else.
# The per-pair search cost (check.Expected.search_visits) is heavy-tailed
# in both seeded workloads: at n = 5 one `random` draw in ten pops over
# 10^4 pairs and can take 0.25 s where the median draw takes 0.01 s, so
# one draw moved a seed's observability time by a third.  Both workloads
# are about short searches (the long ones are the counter's), so draws
# outside a band of search work are redrawn: `random` keeps its middle
# eight tenths, `wide`, whose every pop scans 512 controls, the cheaper
# four fifths.
COUNTER_REACH_N = 9
COUNTER_OBSERVE_N = 7
RANDOM_MODELS, RANDOM_N, RANDOM_M, RANDOM_DEPTH = 6, 5, 2, 3
RANDOM_SEARCH_VISITS = range(500, 10001)
WIDE_MODELS, WIDE_N, WIDE_M, WIDE_DEPTH = 4, 3, 9, 5
WIDE_RULE_NODES = range(39, 42)
WIDE_SEARCH_VISITS = range(0, 151)
_NO_SETS = {"initial": [], "destination": []}

WORKLOADS = ("counter", "random", "wide")


@dataclass(frozen=True)
class Group:
    """One model and the jobs run on it."""

    model: netlang.NetworkModel
    sets: dict  # {"initial": [[state, ...], ...], "destination": [...]} as 1-based ints
    jobs: tuple[str, ...]
    model_path: Path
    sets_path: Path

    def argv(self, job: str) -> list[str]:
        sub = {"MODEL": str(self.model_path), "SETS": str(self.sets_path)}
        return [sub.get(a, a) for a in JOB_ARGS[job]]


def counter_model(n: int) -> netlang.NetworkModel:
    """The n-bit counter: xk' = xk ^ (u & x1 & ... & x(k-1)), y = x1 & ... & xn."""
    xs = [netlang.Var(f"x{k}") for k in range(1, n + 1)]

    def conj(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = netlang.And(acc, t)
        return acc

    updates = tuple(
        netlang.Xor(xs[k], conj([netlang.Var("u")] + xs[:k])) for k in range(n)
    )
    return netlang.NetworkModel(
        name=f"counter{n}",
        states=tuple(x.name for x in xs),
        inputs=("u",),
        outputs=("y",),
        updates=updates,
        output_maps=(conj(xs),),
    )


def _state_text(state: int, n: int) -> str:
    """Bit-string spelling of a 1-based state index (index 1 is all ones)."""
    return "".join("0" if (state - 1) >> (n - 1 - i) & 1 else "1" for i in range(n))


def _draw_sets(rng: random.Random, n: int) -> tuple[dict, str]:
    """Three initial and two destination sets of 1-3 distinct states.

    Returns the families as index lists and the JSON text, which spells
    half the states as bit strings so both spellings are parsed."""
    nn = 1 << n
    families = {}
    doc = {}
    for key, count in (("initial", 3), ("destination", 2)):
        chosen: list[list[int]] = []
        while len(chosen) < count:
            members = sorted(rng.sample(range(1, nn + 1), rng.randint(1, min(3, nn))))
            if members not in chosen:
                chosen.append(members)
        families[key] = chosen
        doc[key] = [
            {"name": f"{key}_{k}",
             "states": [_state_text(s, n) if rng.random() < 0.5 else s for s in members]}
            for k, members in enumerate(chosen, start=1)
        ]
    return families, json.dumps(doc, indent=1) + "\n"


def _nodes(e) -> int:
    """AST node count of an expression."""
    if isinstance(e, netlang.Not):
        return 1 + _nodes(e.operand)
    if isinstance(e, (netlang.Const, netlang.Var)):
        return 1
    return 1 + _nodes(e.left) + _nodes(e.right)


def _models(workload: str, rng: random.Random) -> list[tuple[netlang.NetworkModel, tuple[str, ...]]]:
    if workload == "counter":
        return [(counter_model(COUNTER_REACH_N), REACH_JOBS),
                (counter_model(COUNTER_OBSERVE_N), OBSERVE_JOBS)]
    if workload == "random":
        models = []
        while len(models) < RANDOM_MODELS:
            model = oracle.random_model(rng, RANDOM_N, RANDOM_M, 1,
                                        name=f"random{len(models)}", depth=RANDOM_DEPTH)
            if check.Expected(model, _NO_SETS).search_visits() in RANDOM_SEARCH_VISITS:
                models.append((model, ALL_JOBS))
        return models
    if workload == "wide":
        models = []
        while len(models) < WIDE_MODELS:
            model = oracle.random_model(rng, WIDE_N, WIDE_M, 1, name=f"wide{len(models)}",
                                        depth=WIDE_DEPTH)
            if (sum(map(_nodes, model.updates)) in WIDE_RULE_NODES
                    and check.Expected(model, _NO_SETS).search_visits() in WIDE_SEARCH_VISITS):
                models.append((model, ALL_JOBS))
        return models
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out_dir: Path) -> list[Group]:
    """Write the workload's `.bcn` and set-spec files into out_dir."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = []
    for k, (model, jobs) in enumerate(_models(workload, rng)):
        text = netlang.format_network(model)
        if netlang.parse_network(text) != model:
            raise RuntimeError(f"{model.name}: format/parse round trip changed the model")
        sets, sets_text = _draw_sets(rng, model.n)
        model_path = out_dir / f"{k:02d}_{model.name}.bcn"
        sets_path = out_dir / f"{k:02d}_{model.name}_sets.json"
        model_path.write_text(text, encoding="utf-8")
        sets_path.write_text(sets_text, encoding="utf-8")
        groups.append(Group(model, sets, jobs, model_path, sets_path))
    return groups
