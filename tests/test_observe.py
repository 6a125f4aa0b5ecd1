import itertools
import random
from pathlib import Path

import pytest

from bcnkit import compiler, observe, paper
from bcnkit.boolmat import BooleanMatrix
from bcnkit.cli import main
from bcnkit.compiler import AlgebraicForm, SizeLimitError, algebraic_form
from bcnkit.netlang import NetworkModel, parse_network
from bcnkit.observe import (
    distinguishing_witness,
    extended_system,
    observability_verdict,
    pair_index,
    partition_pairs,
    render_report,
)
from bcnkit.oracle import distinguish_distances, distinguish_oracle, random_model, reach_oracle
from bcnkit.reach import controllability_matrix, one_step_matrix
from conftest import counter_text


def _memoise_per_form(monkeypatch):
    """Compute the pair maps, the partition and the search once per form
    object: each memo is keyed by the identity of the arguments, so a call
    hashes none of the 4^n-long tuples, and it keeps the arguments alive,
    so no identity is reused."""
    for name in ("extended_system", "partition_pairs", "_search"):
        monkeypatch.setattr(observe, name, _by_identity(getattr(observe, name)))


def _by_identity(fn):
    memo = {}

    def memoised(*args):
        key = tuple(map(id, args))
        if key not in memo:
            memo[key] = args, fn(*args)
        return memo[key][1]

    return memoised


class TestPairIndex:
    def test_known_values(self):
        assert pair_index(2, 4, 3) == 12
        assert pair_index(6, 8, 3) == 48
        assert pair_index(1, 1, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            pair_index(9, 1, 3)


class TestPartition:
    def test_lac_case1_theta(self, lac_case1_form):
        part = partition_pairs(lac_case1_form)
        assert paper.theta_indices(part) == (12, 14, 16, 30, 32, 48)
        assert part.theta == ((2, 4), (2, 6), (2, 8), (4, 6), (4, 8), (6, 8))

    def test_lac_case2_theta_and_xi(self, lac_case2_form):
        part = partition_pairs(lac_case2_form)
        assert paper.theta_indices(part) == (2, 20, 38, 56)
        upper_xi = sorted(w for w in part.xi if (w - 1) // 8 < (w - 1) % 8)
        assert upper_xi == [3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16,
                            21, 22, 23, 24, 29, 30, 31, 32, 39, 40, 47, 48]

    def test_injective_output(self):
        form = algebraic_form(
            parse_network("network a\nstates: x1\noutputs: y1\nx1' = x1\ny1 = x1\n")
        )
        part = partition_pairs(form)
        assert part.theta == ()
        assert part.xi == frozenset({2, 3})

    def test_partition_is_exhaustive_and_disjoint(self):
        # partition_pairs builds Theta and Xi per output class; the
        # reference here enumerates all 4^n pairs.  With p = 3 some draws
        # have 8 output classes (`classes` counts them).
        rng = random.Random(411)
        classes = set()
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(12):
                p = rng.randint(1, 3)
                form = algebraic_form(random_model(rng, n, 0, p))
                part = partition_pairs(form)
                nn, out = form.state_count, form.H.col_index
                pairs = [(z, x) for z in range(1, nn + 1) for x in range(1, nn + 1)]
                assert part.theta == tuple((z, x) for z, x in pairs if z < x and out[z - 1] == out[x - 1])
                assert part.xi == {pair_index(z, x, n) for z, x in pairs if out[z - 1] != out[x - 1]}
                total = 1 << (2 * n)
                d, th, xi = paper.diagonal(part), paper.theta_ordered(part), part.xi
                assert len(d) + len(th) + len(xi) == total
                assert not (d & th) and not (d & xi) and not (th & xi)
                assert d | th | xi == frozenset(range(1, total + 1))
                classes.add(len(set(out)))
        assert max(classes) == 8


class TestExtendedSystem:
    def test_lac_coordinatewise(self, lac_case1_form):
        ext = extended_system(lac_case1_form)
        # control 5 sends states (2, 4) to (1, 5)
        w = pair_index(2, 4, 3)
        assert ext[4][w - 1] == pair_index(1, 5, 3)

    def test_diagonal_invariance(self, lac_case1_form):
        ext = extended_system(lac_case1_form)
        part = partition_pairs(lac_case1_form)
        for mp in ext:
            for w in paper.diagonal(part):
                assert mp[w - 1] in paper.diagonal(part)

    def test_small_autonomous(self):
        form = algebraic_form(parse_network("network a\nstates: x1\nx1' = !x1\n"))
        ext = extended_system(form)
        assert ext[0][pair_index(1, 2, 1) - 1] == pair_index(2, 1, 1)

    def test_identity_map_is_a_range(self):
        # The counter's u = 0 (control 2) holds every state: its pair map is
        # the identity, left as a range, and the search reads it as it reads
        # the tuple it stands for.
        form = algebraic_form(parse_network(counter_text(3)))
        part = partition_pairs(form)
        ext = extended_system(form)
        assert ext[1] == range(1, 65) and isinstance(ext[0], tuple)
        built = (ext[0], tuple(ext[1]))
        for witnesses in (False, True):
            assert observe._search(ext, part, witnesses) == observe._search(built, part, witnesses)


class TestSearch:
    """`_search` stores its witness steps only when asked; its distances
    and its order of reached pairs do not depend on it."""

    def test_without_witnesses_stores_no_steps(self):
        rng = random.Random(23)
        forms = [algebraic_form(parse_network(counter_text(4)))]
        for _ in range(40):
            forms.append(algebraic_form(random_model(rng, rng.randint(1, 4), rng.randint(0, 2), rng.randint(1, 2))))
        for form in forms:
            ext, part = extended_system(form), partition_pairs(form)
            dist, via, toward, order = observe._search(ext, part, True)
            assert observe._search(ext, part, False) == (dist, [], [], order)
            assert len(via) == len(toward) == len(dist)


class TestSizeGuard:
    """The pair-space guard refuses a model before anything of pair-space
    size is built; with the budget lowered, lac_case1 (n = 3, 2^6 pairs)
    stands in for a model too large for the machine."""

    @pytest.fixture
    def partition_calls(self, monkeypatch):
        calls = []
        real = observe.partition_pairs
        monkeypatch.setattr(observe, "partition_pairs", lambda form: calls.append(form) or real(form))
        return calls

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(compiler, "MAX_BYTES", 1000)

    @pytest.mark.parametrize("query", [
        lambda form: observability_verdict(form, want_witnesses=True),
        lambda form: distinguishing_witness(form, 1, 2),
    ], ids=["verdict", "witness"])
    def test_refused_before_partition(self, partition_calls, small_budget, lac_case1_form, query):
        with pytest.raises(SizeLimitError, match=r"2\^6 pairs under 2\^\d+ controls .* limit is 1,000$"):
            query(lac_case1_form)
        assert partition_calls == []

    @pytest.mark.parametrize("pair", [(9, 1), (1, 9)])
    def test_witness_state_out_of_range(self, partition_calls, lac_case1_form, pair):
        # The pair is checked, in the order given, before any pair-space work.
        with pytest.raises(IndexError, match=rf"^pair \({pair[0]},{pair[1]}\) outside 1\.\.8$"):
            distinguishing_witness(lac_case1_form, *pair)
        assert partition_calls == []

    def test_cli_exits_2(self, partition_calls, small_budget, capsys):
        model = Path(__file__).resolve().parent.parent / "models" / "lac_case1.bcn"
        assert main(["observability", str(model), "--witness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "limit is 1,000" in captured.err
        assert partition_calls == []

    def test_thirteen_states_refused(self, partition_calls, tmp_path, capsys):
        # n = 13: 2^26 pairs, about 24 GiB by the estimate at m = 1.
        form = algebraic_form(parse_network(counter_text(13)))
        assert compiler.pair_space_bytes(13, 1) > compiler.MAX_BYTES
        with pytest.raises(SizeLimitError, match=r"2\^26 pairs"):
            observability_verdict(form)
        model = tmp_path / "counter13.bcn"
        model.write_text(counter_text(13))
        assert main(["observability", str(model), "--witness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert partition_calls == []

    def test_witness_length_counted(self, monkeypatch):
        # A budget that holds the pair space of the 3-bit counter but not
        # its witnesses refuses only the run that builds the witnesses.
        form = algebraic_form(parse_network(counter_text(3)))
        monkeypatch.setattr(compiler, "MAX_BYTES", compiler.pair_space_bytes(3, 1))
        assert observability_verdict(form).observable
        with pytest.raises(SizeLimitError):
            observability_verdict(form, want_witnesses=True)


    def test_estimate_bounds_traced_peak(self):
        # The traced peak of the verdict with witnesses and its rendering
        # stays within pair_space_bytes, witness controls included.
        import tracemalloc

        rng = random.Random(2040)
        models = [parse_network(counter_text(n)) for n in (5, 6, 7)]
        models += [random_model(rng, rng.randint(1, 6), rng.randint(0, 3), rng.randint(1, 2)) for _ in range(20)]
        for model in models:
            form = algebraic_form(model)
            tracemalloc.start()
            try:
                report = observability_verdict(form, want_witnesses=True)
                render_report(report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            steps = sum(wit[1] for wit in report.witnesses if wit)
            assert peak <= compiler.pair_space_bytes(form.n, form.m, steps), (model.name, form.n, form.m)

class TestSetup:
    def test_case1_initial_family(self, lac_case1_form):
        part = partition_pairs(lac_case1_form)
        p0, pd = paper.observability_setup(part)
        assert [s.members for s in p0.sets] == [(12,), (14,), (16,), (30,), (32,), (48,)]
        assert len(pd.sets) == 1 and pd.sets[0].members == tuple(sorted(part.xi))

    def test_case2_initial_family(self, lac_case2_form):
        p0, _ = paper.observability_setup(partition_pairs(lac_case2_form))
        assert [s.members for s in p0.sets] == [(2,), (20,), (38,), (56,)]


class TestVerdict:
    def test_case1_observable(self, lac_case1_form):
        report = observability_verdict(lac_case1_form)
        assert report.observable
        assert report.flags == (True,) * 6

    def test_case2_not_observable(self, lac_case2_form):
        report = observability_verdict(lac_case2_form)
        assert not report.observable
        assert report.flags == (False, True, False, True)

    def test_injective_output_short_circuits(self):
        form = algebraic_form(
            parse_network("network a\nstates: x1\noutputs: y1\nx1' = x1\ny1 = x1\n")
        )
        report = observability_verdict(form)
        assert report.observable and report.theta == ()

    def test_rejects_outputless_model(self):
        form = algebraic_form(parse_network("network a\nstates: x1\nx1' = x1\n"))
        with pytest.raises(ValueError):
            observability_verdict(form)

    def test_bfs_matches_dense_engine(self, lac_case1_form, lac_case2_form):
        rng = random.Random(5150)
        forms = [lac_case1_form, lac_case2_form]
        for _ in range(15):
            forms.append(algebraic_form(random_model(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 2))))
        for form in forms:
            report = observability_verdict(form)
            if not report.theta:
                continue
            row = paper.dense_verdict_row(form)
            assert tuple(row.get(1, k) == 1 for k in range(1, row.cols + 1)) == report.flags

    def test_three_engines_agree_above_n_3(self):
        # The search, the dense pair-space closure and the brute-force
        # oracle give the same flags, and the closure the oracle's reach.
        rng = random.Random(4646)
        for _ in range(24):
            model = random_model(rng, rng.randint(4, 6), rng.randint(0, 2), rng.randint(1, 2))
            form = algebraic_form(model)
            assert controllability_matrix(one_step_matrix(form)) == reach_oracle(model)
            report = observability_verdict(form)
            assert dict(distinguish_oracle(model)) == dict(zip(report.theta, report.flags))
            if report.theta:
                row = paper.dense_verdict_row(form)
                assert tuple(row.get(1, k) == 1 for k in range(1, row.cols + 1)) == report.flags

    def test_orientation_symmetry(self):
        rng = random.Random(999)
        for _ in range(20):
            form = algebraic_form(random_model(rng, rng.randint(2, 3), rng.randint(0, 2), rng.randint(1, 2)))
            part = partition_pairs(form)
            for z, x in part.theta[:4]:
                a = distinguishing_witness(form, z, x)
                b = distinguishing_witness(form, x, z)
                assert (a is None) == (b is None)

    def test_diagonal_absorption_random_walks(self, lac_case1_form):
        rng = random.Random(31337)
        form = lac_case1_form
        ext = extended_system(form)
        part = partition_pairs(form)
        for _ in range(200):
            w = rng.choice(sorted(paper.diagonal(part)))
            for _ in range(10):
                w = ext[rng.randrange(len(ext))][w - 1]
                assert w in paper.diagonal(part)


class TestWitness:
    def test_case2_pair_3_4(self, lac_case2_form):
        wit = distinguishing_witness(lac_case2_form, 3, 4)
        assert wit == ((5,), 1)

    def test_case2_pair_1_2_has_none(self, lac_case2_form):
        assert distinguishing_witness(lac_case2_form, 1, 2) is None

    def test_pair_already_distinguished(self, lac_case2_form):
        assert distinguishing_witness(lac_case2_form, 1, 3) == ((), 0)

    def test_pair_already_distinguished_swapped(self, lac_case2_form):
        assert distinguishing_witness(lac_case2_form, 3, 1) == ((), 0)

    def test_equal_states_rejected(self, lac_case2_form):
        with pytest.raises(ValueError):
            distinguishing_witness(lac_case2_form, 2, 2)

    def test_witness_replay_separates_outputs(self, lac_case2_form):
        # Replaying the witness on both trajectories: outputs agree before
        # time T and differ at T.
        form = lac_case2_form
        for z0, x0 in ((3, 4), (7, 8)):
            wit = distinguishing_witness(form, z0, x0)
            assert wit is not None
            controls, t = wit
            z, x = z0, x0
            for step, j in enumerate(controls):
                assert paper.column(form.H, z) == paper.column(form.H, x), f"outputs differ early at {step}"
                z, x = form.successors(j)[z - 1], form.successors(j)[x - 1]
            assert paper.column(form.H, z) != paper.column(form.H, x)
            assert t == len(controls)

    def test_verdict_agrees_with_single_pair_walks(self, monkeypatch):
        # The verdict continues each witness with that of the representative
        # one step closer to Xi, swapping the copies where z > x;
        # distinguishing_witness walks its one pair, in either orientation.
        # The pair maps, partition and distances depend only on the form, so
        # they are computed once per form here and each call costs only its
        # walk (about 0.5 s in all, 40 s without).
        _memoise_per_form(monkeypatch)
        rng = random.Random(8)
        forms = [algebraic_form(parse_network(counter_text(6)))]
        for _ in range(200):
            forms.append(algebraic_form(random_model(rng, rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 2))))
        checked = 0
        for form in forms:
            report = observability_verdict(form, want_witnesses=True)
            for (z, x), wit in zip(report.theta, report.witnesses):
                assert distinguishing_witness(form, z, x) == wit == distinguishing_witness(form, x, z), (z, x)
                checked += wit is not None and wit[1] > 1
        assert checked > 1000


def _lands_in_xi(form, z, x, controls):
    for j in controls:
        z, x = form.successors(j)[z - 1], form.successors(j)[x - 1]
    return paper.column(form.H, z) != paper.column(form.H, x)


def _with_idle_input(rng, model):
    """The model with one more input, which no update rule reads, at a
    random place among the inputs: every state map then belongs to two
    controls or more."""
    at = rng.randint(0, model.m)
    return NetworkModel(model.name, model.states, model.inputs[:at] + ("idle",) + model.inputs[at:],
                        model.outputs, model.updates, model.output_maps)


class TestWitnessChoice:
    def test_lexicographically_first_shortest(self):
        # Among all shortest sequences the witness is the first in
        # lexicographic order, both from distinguishing_witness and from the
        # verdict's steps; `ties` makes sure the draws include pairs where
        # another sequence of the same length also separates them.  Draws
        # with an input that no rule reads make every control share its
        # state map with another: a witness then uses only the first control
        # of each group (`shared` counts pairs that need a control).
        rng = random.Random(2718)
        draws = [random_model(rng, rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 2)) for _ in range(200)]
        draws += [_with_idle_input(rng, random_model(rng, rng.randint(1, 3), rng.randint(0, 1), rng.randint(1, 2)))
                  for _ in range(100)]
        checked = ties = shared = 0
        for model in draws:
            form = algebraic_form(model)
            controls = range(1, form.control_count + 1)
            report = observability_verdict(form, want_witnesses=True)
            for (z, x), verdict_wit in zip(report.theta, report.witnesses):
                wit = distinguishing_witness(form, z, x)
                if wit is None or wit[1] > 6:
                    assert verdict_wit == wit, (z, x)
                    continue
                landing = (
                    seq
                    for t in range(wit[1] + 1)
                    for seq in itertools.product(controls, repeat=t)
                    if _lands_in_xi(form, z, x, seq)
                )
                first = next(landing)
                assert verdict_wit == wit == (first, len(first)), (z, x)
                checked += 1
                ties += next(landing, None) is not None
                shared += "idle" in model.inputs and wit[1] > 0
        assert checked > 100 and ties > 20 and shared > 100

    def test_steps_follow_oracle_distances(self):
        # The steps the verdict's search records are checked against
        # distances from the brute-force oracle: each representative w is
        # reached (via[w]) through the smallest control whose successor
        # pair is one step closer to Xi, at dist[w] = T, and toward[w] is
        # that pair's z < x index, also at T = 1 where the pair is in Xi.
        # `ties` makes sure the draws include pairs where a larger control
        # also qualifies.  Besides small random models, the draws hold the
        # 4- to 7-bit counters, random models with n = 5-6, and three
        # models with a control whose state map is the identity, which the
        # search skips: a model with no input whose update is the identity
        # (no pair is distinguishable), the 4-bit counter counting on
        # u = 0, so that control 1 holds, and a two-input counter counting
        # on u ^ v, so that controls 1 and 4 hold.
        rng = random.Random(1729)
        models = [parse_network(counter_text(n)) for n in (4, 5, 6, 7)]
        models.append(parse_network("network ident\nstates: x1, x2, x3\noutputs: y\n"
                                    "x1' = x1\nx2' = x2\nx3' = x3\ny = x1 | x2\n"))
        models.append(parse_network(counter_text(4).replace("(u", "(!u")))
        models.append(parse_network(counter_text(4).replace("inputs: u", "inputs: u, v").replace("(u", "((u ^ v)")))
        for _ in range(150):
            models.append(random_model(rng, rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 2)))
        for _ in range(20):
            models.append(random_model(rng, rng.randint(5, 6), rng.randint(0, 3), rng.randint(1, 2)))
        checked = ties = 0
        for model in models:
            form = algebraic_form(model)
            nn, out = form.state_count, form.H.col_index
            ref = dict(distinguish_distances(model))

            def distance(a, b):
                # 0 in Xi; None on the diagonal and for indistinguishable pairs.
                return 0 if out[a - 1] != out[b - 1] else ref.get((min(a, b), max(a, b)))

            report = observability_verdict(form, want_witnesses=True)
            maps = [form.successors(j) for j in range(1, form.control_count + 1)]
            for z, x in report.theta:
                w, t = (z - 1) * nn + x - 1, ref[(z, x)]
                if t is None:
                    assert report.dist[w] == -1, (z, x)
                    continue
                successors = [(succ[z - 1], succ[x - 1]) for succ in maps]
                closer = [j for j, pair in enumerate(successors, start=1) if distance(*pair) == t - 1]
                j = report.via[w]
                assert (j, report.dist[w]) == (closer[0], t), (z, x)
                a, b = sorted(successors[j - 1])
                assert report.toward[w] == (a - 1) * nn + b - 1, (z, x)
                checked += 1
                ties += len(closer) > 1
        assert checked > 1000 and ties > 20

    def test_counter_needs_long_witnesses(self):
        n = 6
        form = algebraic_form(parse_network(counter_text(n)))
        report = observability_verdict(form, want_witnesses=True)
        assert report.observable
        assert max(t for _, t in report.witnesses) == (1 << n) - 2
        for (z0, x0), (controls, t) in zip(report.theta, report.witnesses):
            assert t == len(controls)
            z, x = z0, x0
            for j in controls:
                assert paper.column(form.H, z) == paper.column(form.H, x)
                z, x = form.successors(j)[z - 1], form.successors(j)[x - 1]
            assert paper.column(form.H, z) != paper.column(form.H, x)


class TestRendering:
    def test_report_text(self, lac_case2_form):
        report = observability_verdict(lac_case2_form, want_witnesses=True)
        text = render_report(report)
        assert "{1,2} -> indistinguishable" in text
        assert "{3,4} -> distinguishable [witness: u=(5),T=1]" in text
        assert text.rstrip().endswith("verdict: not observable")

    def test_witness_text_matches_single_pair_walks(self, monkeypatch):
        # render_report writes each witness from the report's steps, never
        # from the (controls, T) tuples: every Theta line must carry the
        # text of the witness distinguishing_witness walks for its pair.
        _memoise_per_form(monkeypatch)
        rng = random.Random(11)
        forms = [algebraic_form(parse_network(counter_text(6)))]
        for _ in range(100):
            forms.append(algebraic_form(random_model(rng, rng.randint(1, 5), rng.randint(0, 3), rng.randint(1, 2))))
        checked = 0
        for form in forms:
            report = observability_verdict(form, want_witnesses=True)
            lines = render_report(report).splitlines()
            assert len(lines) == len(report.theta) + 1
            for (z, x), line in zip(report.theta, lines):
                wit = distinguishing_witness(form, z, x)
                head = f"{{{z},{x}}} -> "
                if wit is None:
                    assert line == head + "indistinguishable"
                else:
                    controls, t = wit
                    assert line == head + f"distinguishable [witness: u=({','.join(map(str, controls))}),T={t}]"
                    checked += t > 1
        assert checked > 1000
