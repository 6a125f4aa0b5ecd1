import random

import pytest

from bcnkit import paper
from bcnkit.boolmat import BooleanMatrix
from bcnkit.compiler import algebraic_form
from bcnkit.netlang import parse_network
from bcnkit.observe import observability_verdict
from bcnkit.oracle import (
    SizeLimitError,
    distinguish_distances,
    distinguish_oracle,
    random_model,
    reach_oracle,
    transition_graph,
)
from bcnkit.reach import controllability_matrix, one_step_matrix

TOY_C = paper.from_rows(
    [[1, 1, 1, 1],
     [1, 1, 1, 1],
     [0, 0, 1, 0],
     [1, 1, 1, 1]]
)


def load(path):
    from conftest import load_model

    return load_model(path)


class TestTransitionGraph:
    def test_successors_nonempty(self, toy_model):
        g = transition_graph(toy_model)
        assert len(g) == 4 and all(g)

    def test_toy_successors(self, toy_model):
        assert transition_graph(toy_model) == ((2,), (2, 4), (1, 2, 3, 4), (1, 2))


class TestReachOracle:
    def test_toy_matches_reference(self, toy_model):
        assert reach_oracle(toy_model) == TOY_C

    def test_autonomous_identity(self):
        model = parse_network("network a\nstates: x1\nx1' = x1\n")
        assert reach_oracle(model) == BooleanMatrix.identity(2)

    def test_pure_input(self):
        model = parse_network("network a\nstates: x1\ninputs: u1\nx1' = u1\n")
        assert reach_oracle(model) == paper.ones(2, 2)

    def test_size_limit(self):
        states = ", ".join(f"x{i}" for i in range(1, 14))
        rules = "\n".join(f"x{i}' = x{i}" for i in range(1, 14))
        model = parse_network(f"network big\nstates: {states}\n{rules}\n")
        with pytest.raises(SizeLimitError):
            reach_oracle(model)


class TestDistinguishOracle:
    def test_lac_case2(self):
        flags = dict(distinguish_oracle(load("lac_case2.bcn")))
        assert flags == {(1, 2): False, (3, 4): True, (5, 6): False, (7, 8): True}

    def test_lac_case1_all_distinguishable(self):
        flags = distinguish_oracle(load("lac_case1.bcn"))
        assert [f for _, f in flags] == [True] * 6

    def test_distances(self):
        assert distinguish_distances(load("lac_case2.bcn")) == (
            ((1, 2), None), ((3, 4), 1), ((5, 6), None), ((7, 8), 1))
        # The n-bit counter's longest shortest distinguishing sequence has 2^n - 2 steps.
        from conftest import counter_text

        distances = dict(distinguish_distances(parse_network(counter_text(4))))
        assert len(distances) == 105 and max(distances.values()) == 14

    def test_injective_output_vacuous(self):
        model = parse_network("network a\nstates: x1\noutputs: y1\nx1' = x1\ny1 = x1\n")
        assert distinguish_oracle(model) == ()

    def test_outputless_rejected(self):
        model = parse_network("network a\nstates: x1\nx1' = x1\n")
        with pytest.raises(ValueError):
            distinguish_oracle(model)


class TestCrossValidation:
    """The matrix path and the simulation path must agree on random models."""

    def test_reachability_agreement(self):
        rng = random.Random(1618)
        for _ in range(60):
            model = random_model(rng, rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2))
            c = controllability_matrix(one_step_matrix(algebraic_form(model)))
            assert reach_oracle(model) == c

    def test_distinguishability_agreement(self):
        rng = random.Random(271828)
        for _ in range(60):
            model = random_model(rng, rng.randint(1, 4), rng.randint(0, 2), rng.randint(1, 2))
            report = observability_verdict(algebraic_form(model))
            truth = dict(distinguish_oracle(model))
            assert truth == dict(zip(report.theta, report.flags))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("output", ["x1 & !x1", "x1 & x2", "x1 ^ x{n}"], ids=["constant", "and", "xor"])
    def test_rotation_distances(self, n, output):
        # The rotation's controls mix the joint states, so a search that
        # finds no differing outputs sees most of them; with constant output
        # every search is one, and the oracle skips the joint states the
        # searches before it saw.  Its distances must equal the engine's.
        from conftest import rotation_text

        model = parse_network(rotation_text(n, output.format(n=n)))
        form = algebraic_form(model)
        report = observability_verdict(form, want_witnesses=True)
        engine = [report.dist[(z - 1) * form.state_count + x - 1] for z, x in report.theta]
        distances = distinguish_distances(model)
        assert [pair for pair, _ in distances] == list(report.theta)
        assert [-1 if d is None else d for _, d in distances] == engine
        assert tuple(d is not None for _, d in distances) == report.flags
