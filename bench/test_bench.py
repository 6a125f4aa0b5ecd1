"""Tests of the benchmark's own parts: inputs, output check and tracing."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import check
import tracing
import workloads
from bcnkit import cli, netlang, oracle


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_format_parse_round_trip():
    rng = random.Random(0)
    for k in range(300):
        model = oracle.random_model(rng, rng.randint(1, 4), rng.randint(0, 3),
                                    rng.randint(0, 2), name=f"m{k}", depth=5)
        assert netlang.parse_network(netlang.format_network(model)) == model


def _group(model, sets, tmp_path):
    """Write the model and its set spec; returns a group running every job."""
    group = workloads.Group(model, sets, workloads.ALL_JOBS,
                            tmp_path / "model.bcn", tmp_path / "sets.json")
    group.model_path.write_text(netlang.format_network(model))
    group.sets_path.write_text(json.dumps(
        {key: [{"states": members} for members in sets[key]] for key in sets}))
    return group


def _run(model, sets, job, tmp_path, main=cli.main):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_group(model, sets, tmp_path).argv(job))
    return code, out.getvalue()


def _small_models(count):
    rng = random.Random(3)
    for k in range(count):
        n = rng.randint(2, 4)
        model = oracle.random_model(rng, n, rng.randint(1, 2), 1, name=f"s{k}", depth=3)
        sets = {"initial": [[1], [2, 3]], "destination": [[rng.randint(1, 1 << n)]]}
        yield model, sets


def test_checker_agrees_with_oracles():
    for model, sets in _small_models(25):
        exp = check.Expected(model, sets)
        reach = oracle.reach_oracle(model)
        for a in range(1, exp.nn + 1):
            column = sum(reach.get(i, a) << (i - 1) for i in range(1, exp.nn + 1))
            assert exp.reach[a] == column
        truth = dict(oracle.distinguish_oracle(model))
        assert truth == {pair: d is not None for pair, d in exp.dist.items()}


def test_checker_accepts_engine_output(tmp_path):
    for model, sets in _small_models(8):
        exp = check.Expected(model, sets)
        for job in workloads.ALL_JOBS:
            code, out = _run(model, sets, job, tmp_path)
            assert exp.check(job, code, out, "") is None, (model, job)


def test_checker_catches_faults(tmp_path):
    model = workloads.counter_model(3)
    sets = {"initial": [[1]], "destination": [[2]]}
    exp = check.Expected(model, sets)
    code, out = _run(model, sets, "controllability", tmp_path)
    assert exp.check("controllability", code, out, "") is None
    assert exp.check("controllability", code, "not " + out, "") is not None
    assert exp.check("controllability", 1, out, "") is not None
    assert exp.check("controllability", None, out, "") is not None
    assert exp.check("controllability", code, out, check._TRACEBACK) is not None

    code, out = _run(model, sets, "witness", tmp_path)
    assert exp.check("witness", code, out, "") is None
    line = next(ln for ln in out.splitlines() if "T=2]" in ln)
    corrupted = [
        line.replace("u=(1,1)", "u=(1,2)"),  # wrong control, same length
        line.replace("T=2", "T=3"),  # length disagrees with the sequence
        line.replace("u=(1,1),T=2", "u=(2,1,1),T=3"),  # valid but not shortest
    ]
    for bad in corrupted:
        assert bad != line
        assert exp.check("witness", code, out.replace(line, bad), "") is not None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_counter_closed_form(n):
    exp = check.Expected(workloads.counter_model(n), {"initial": [[1]], "destination": [[2]]})
    assert exp.controllable and exp.output_controllable and exp.observable
    assert max(exp.dist.values()) == (1 << n) - 2


def test_every_wrapper_intercepts(tmp_path):
    model = workloads.counter_model(4)
    sets = {"initial": [[1], [5, 6]], "destination": [[3]]}
    tracer = tracing.Tracer()
    with tracer.installed() as traced_main:
        for job in workloads.ALL_JOBS:
            _run(model, sets, job, tmp_path, traced_main)
    names = {sp.name for sp in tracer.spans}
    assert names == {name for _, _, name in tracing.TARGETS} | {"cli.main"}
    assert not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for owner, attr, _ in tracing.TARGETS)
    # controllability, emit, set and output controllability each close once.
    assert tracing.closure_rounds_per_closure(tracer.spans) == [(1 << 4) - 1] * 4
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["reach.closure_rounds"] == 4 * ((1 << 4) - 1)
    assert metrics["compiler.columns"] == len(workloads.ALL_JOBS) * (1 << 5)
    assert metrics["observe.theta_pairs"] == 2 * 105
    assert metrics["observe.pair_space"] == 2 * (1 << 8)
