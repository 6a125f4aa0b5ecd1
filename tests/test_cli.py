from pathlib import Path

import pytest

from bcnkit import compiler, reach
from bcnkit.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spec(initial, destination='[{"states": [1]}]'):
    """Set-specification JSON text from the two family texts."""
    return f'{{"initial": {initial}, "destination": {destination}}}'


class TestCompile:
    def test_toy(self, capsys):
        code, out, _ = run(capsys, "compile", MODELS / "toy.bcn")
        assert code == 0
        assert out.splitlines()[0] == "n=2 m=2 p=1"
        assert "delta 2 [1 2 2 2]" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "controllability", MODELS / "missing.bcn")
        assert code == 2
        assert "error:" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.bcn"
        bad.write_text("network x\nstates: a\na' = a &\n")
        code, _, err = run(capsys, "compile", bad)
        assert code == 2
        assert "line 3" in err


class TestControllability:
    def test_toy_not_controllable(self, capsys):
        code, out, _ = run(capsys, "controllability", MODELS / "toy.bcn")
        assert code == 1
        assert out.startswith("not controllable")

    def test_controllable_model(self, capsys, tmp_path):
        mdl = tmp_path / "free.bcn"
        mdl.write_text("network f\nstates: x1\ninputs: u1\nx1' = u1\n")
        code, out, _ = run(capsys, "controllability", mdl)
        assert code == 0
        assert out.startswith("controllable")

    def test_emit_matrices(self, capsys):
        code, out, _ = run(capsys, "controllability", MODELS / "toy.bcn", "--emit-matrices")
        assert code == 1
        assert "M:" in out and "C:" in out
        assert "0010" in out  # third closure row

    def test_oracle_agrees(self, capsys):
        code, out, _ = run(capsys, "controllability", MODELS / "toy.bcn", "--oracle")
        assert code == 1
        assert "oracle: agree" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "controllability", MODELS / "toy.bcn", "--emit-matrices")
        _, out2, _ = run(capsys, "controllability", MODELS / "toy.bcn", "--emit-matrices")
        assert out1 == out2


class TestSetControllability:
    def test_reachable(self, capsys):
        code, out, _ = run(
            capsys, "set-controllability", MODELS / "toy.bcn",
            "--sets", MODELS / "toy_sets_reachable.json",
        )
        assert code == 0
        assert out.startswith("set controllable")

    def test_unreachable(self, capsys):
        code, out, _ = run(
            capsys, "set-controllability", MODELS / "toy.bcn",
            "--sets", MODELS / "toy_sets_unreachable.json", "--emit-matrices",
        )
        assert code == 1
        assert out.startswith("not set controllable")
        assert "C_S:\n1 2\n10" in out

    def test_oracle(self, capsys):
        code, out, _ = run(
            capsys, "set-controllability", MODELS / "toy.bcn",
            "--sets", MODELS / "toy_sets_reachable.json", "--oracle",
        )
        assert code == 0
        assert "oracle: agree" in out

    def test_bad_spec(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('{"initial": []}')
        code, _, err = run(capsys, "set-controllability", MODELS / "toy.bcn", "--sets", spec)
        assert code == 2
        assert "set specification" in err

    @pytest.mark.parametrize("text", [
        pytest.param(_spec('"ab"'), id="string-family"),
        pytest.param(_spec('{"states": [1]}'), id="object-family"),
        pytest.param(_spec('[{"states": [1]}]', "7"), id="number-family"),
        pytest.param(_spec('[{"states": "10"}]'), id="string-states"),
        pytest.param(_spec('[{"states": {"1": 0}}]'), id="object-states"),
        pytest.param(_spec('[{"states": 5}]'), id="number-states"),
        pytest.param(_spec('[{"states": null}]'), id="null-states"),
        pytest.param(_spec('[{"states": [true]}]'), id="bool"),
        pytest.param(_spec('[{"states": [1e400]}]'), id="infinite"),
        pytest.param(_spec('[{"states": [' + "9" * 40 + "]}]"), id="big-int"),
        pytest.param(_spec('[{"states": [' + "9" * 5000 + "]}]"), id="huge-int"),
        pytest.param(_spec('[{"states": [-' + "9" * 5000 + "]}]"), id="huge-negative-int"),
        pytest.param(_spec('[{"states": [1]}, {"name": ' + "[" * 900 + "]" * 900 + ', "states": []}]'),
                     id="empty-set-deep-name"),
        pytest.param(_spec('[{"states": [' + "9" * 4000 + "]}]"), id="long-out-of-range-int"),
        pytest.param(_spec('[{"states": [' + ", ".join(map(str, range(3, 2003))) + "]}]"),
                     id="many-out-of-range"),
        pytest.param(_spec('[{"states": [-1]}]'), id="negative"),
        pytest.param(_spec('[{"states": [[1]]}]'), id="nested"),
        pytest.param(_spec("[" * 100_000 + "]" * 100_000), id="deep-array"),
    ])
    def test_malformed_spec(self, capsys, tmp_path, text):
        mdl = tmp_path / "one.bcn"
        mdl.write_text("network one\nstates: x1\nx1' = x1\n")
        spec = tmp_path / "sets.json"
        spec.write_text(text)
        code, out, err = run(capsys, "set-controllability", mdl, "--sets", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad set specification") and "internal error" not in err
        assert err.count("\n") == 1 and len(err) < 120, err

    def test_duplicate_sets_warn(self, capsys, tmp_path):
        mdl = tmp_path / "one.bcn"
        mdl.write_text("network one\nstates: x1\nx1' = x1\n")
        spec = tmp_path / "sets.json"
        spec.write_text(_spec('[{"states": [1]}, {"states": ["1"]}]', '[{"states": [2]}]'))
        code, out, err = run(capsys, "set-controllability", mdl, "--sets", spec)
        assert (code, out, err) == (1, "not set controllable\n", "warning: set #2 duplicates set #1\n")


class TestOutputControllability:
    def test_toy_holds(self, capsys):
        code, out, _ = run(capsys, "output-controllability", MODELS / "toy.bcn", "--oracle")
        assert code == 0
        assert out.startswith("output controllable")
        assert "oracle: agree" in out

    def test_outputless_model_fails_gracefully(self, capsys):
        code, _, err = run(capsys, "output-controllability", MODELS / "lac_operon.bcn")
        assert code == 2
        assert "no outputs" in err


class TestObservability:
    def test_case1_observable(self, capsys):
        code, out, _ = run(capsys, "observability", MODELS / "lac_case1.bcn", "--emit-matrices")
        assert code == 0
        assert "verdict: observable" in out
        assert "111111" in out  # C_S row, all six Theta pairs distinguishable

    def test_case2_not_observable(self, capsys):
        code, out, _ = run(
            capsys, "observability", MODELS / "lac_case2.bcn", "--witness", "--oracle"
        )
        assert code == 1
        assert "verdict: not observable" in out
        assert "{3,4} -> distinguishable [witness: u=(5),T=1]" in out
        assert "{1,2} -> indistinguishable" in out
        assert "oracle: agree" in out

    def test_outputless_model_fails_gracefully(self, capsys):
        code, _, err = run(capsys, "observability", MODELS / "lac_operon.bcn")
        assert code == 2
        assert "no outputs" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_sets(self, capsys):
        assert main(["set-controllability", str(MODELS / "toy.bcn")]) == 2


class TestExitContract:
    """An input the engine cannot handle must exit 2, never 1 ("fails"),
    and a valid one must not be refused."""

    def test_very_long_rule(self, capsys, tmp_path):
        # A flat chain is parsed and compiled without recursion, to the
        # same L and H as its single term.
        mdl = tmp_path / "long.bcn"
        mdl.write_text("network f\nstates: x1\nx1' = " + " & ".join(["x1"] * 3000) + "\n")
        short = tmp_path / "short.bcn"
        short.write_text("network f\nstates: x1\nx1' = x1\n")
        code, out, err = run(capsys, "compile", mdl)
        assert (code, err) == (0, "")
        assert out == run(capsys, "compile", short)[1]

    def test_deeply_nested_rule(self, capsys, tmp_path):
        mdl = tmp_path / "nested.bcn"
        mdl.write_text("network f\nstates: x1\nx1' = " + "(" * 2000 + "x1" + ")" * 2000 + "\n")
        short = tmp_path / "short.bcn"
        short.write_text("network f\nstates: x1\nx1' = x1\n")
        code, out, err = run(capsys, "compile", mdl)
        assert (code, err) == (0, "")
        assert out == run(capsys, "compile", short)[1]

    DEEP_RULES = {
        "parentheses": ("(" * 2000 + "x2" + ")" * 2000, "x2"),
        "and-chain": (" & ".join(["x2"] * 3000), "x2"),
        "implies-chain": (" -> ".join(["x2"] * 3001), "1"),
        "negations": ("!" * 3001 + "x2", "!x2"),
    }

    @pytest.mark.parametrize("rule, short", DEEP_RULES.values(), ids=DEEP_RULES)
    def test_rule_deeper_than_recursion_limit(self, capsys, tmp_path, rule, short):
        # The parser, the compiler and the oracle's evaluator keep explicit
        # stacks: a deep rule compiles like a short equivalent, and the
        # oracle agrees (x1 never changes, so the model is not controllable).
        head = "network f\nstates: x1, x2\nx1' = x1\nx2' = "
        mdl = tmp_path / "deep.bcn"
        mdl.write_text(head + rule + "\n")
        ref = tmp_path / "short.bcn"
        ref.write_text(head + short + "\n")
        code, out, err = run(capsys, "compile", mdl)
        assert (code, err) == (0, "")
        assert out == run(capsys, "compile", ref)[1]
        code, out, err = run(capsys, "controllability", mdl, "--oracle")
        assert (code, out, err) == (1, "not controllable\noracle: agree\n", "")

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_max_size_must_be_positive(self, capsys, value):
        code, out, err = run(capsys, "controllability", MODELS / "toy.bcn", "--max-size", value)
        assert code == 2
        assert out == ""
        assert "--max-size: must be positive" in err

    #: The `compiler.check_size` calls exactly at the bound each refusal
    #: below names: (stages, n, p); a byte budget is set to the estimate.
    AT_LIMIT = {
        "flat compilation is limited to 20": [(("compile",), 20, 1)],
        "reach oracle is limited to n+m <= 12": [(("reach_oracle",), 12, 1)],
        "output controllability is limited to 20": [(("outputs",), 1, 20)],
        "dense closure over 2^17 states": [(("closure",), 16, 1), (("outputs", "closure"), 16, 20)],
        "dense closure over 2^16 states": [(("closure", "emit"), 15, 1),
                                           (("outputs", "closure", "emit"), 15, 20)],
        "pair space of 2^24 pairs": [(("pairs",), 11, 1), (("dense_row",), 6, 1)],
        "distinguishability oracle is limited to 2n <= 20": [(("distinguish_oracle",), 10, 1)],
    }

    @pytest.mark.parametrize("argv, states, outputs, message", [
        (["compile"], 21, 1, "flat compilation is limited to 20"),
        (["controllability", "--oracle"], 13, 1, "reach oracle is limited to n+m <= 12"),
        (["set-controllability", "--oracle"], 13, 1, "reach oracle is limited to n+m <= 12"),
        (["output-controllability", "--oracle"], 13, 1, "reach oracle is limited to n+m <= 12"),
        (["output-controllability"], 1, 70, "output controllability is limited to 20"),
        (["output-controllability", "--oracle"], 1, 70, "output controllability is limited to 20"),
        (["controllability"], 21, 1, "flat compilation is limited to 20"),
        (["set-controllability"], 21, 1, "flat compilation is limited to 20"),
        (["output-controllability"], 21, 1, "flat compilation is limited to 20"),
        (["observability"], 21, 1, "flat compilation is limited to 20"),
        (["output-controllability"], 1, 21, "output controllability is limited to 20"),
        (["output-controllability", "--emit-matrices"], 1, 21, "output controllability is limited to 20"),
        (["controllability"], 17, 1, "dense closure over 2^17 states"),
        (["set-controllability"], 17, 1, "dense closure over 2^17 states"),
        (["output-controllability"], 17, 1, "dense closure over 2^17 states"),
        (["controllability", "--emit-matrices"], 16, 1, "dense closure over 2^16 states"),
        (["set-controllability", "--emit-matrices"], 16, 1, "dense closure over 2^16 states"),
        (["output-controllability", "--emit-matrices"], 16, 1, "dense closure over 2^16 states"),
        (["observability"], 12, 1, "pair space of 2^24 pairs"),
        (["observability", "--witness"], 12, 1, "pair space of 2^24 pairs"),
        (["observability", "--emit-matrices"], 12, 1, "pair space of 2^24 pairs"),
        (["observability", "--oracle"], 11, 1, "distinguishability oracle is limited to 2n <= 20"),
        (["output-controllability"], 2, 0, "model declares no outputs; output controllability is undefined"),
        (["observability", "--witness"], 2, 0, "model declares no outputs; observability is undefined"),
    ])
    def test_size_limit_exits_2(self, capsys, tmp_path, monkeypatch, argv, states, outputs, message):
        # Every limit is checked before compiling, and a command prints
        # only after its analysis and its oracle check ran, so a refused
        # run leaves stdout empty.
        def no_compile(*args):
            raise AssertionError("compiled before the size check")

        monkeypatch.setattr(compiler, "algebraic_form", no_compile)
        names = ", ".join(f"x{i}" for i in range(1, states + 1))
        rules = "\n".join(f"x{i}' = x{i}" for i in range(1, states + 1))
        ys = [f"y{k}" for k in range(1, outputs + 1)]
        maps = "\n".join(f"{y} = x1" for y in ys)
        mdl = tmp_path / "big.bcn"
        mdl.write_text(f"network big\nstates: {names}\noutputs: {', '.join(ys)}\n{rules}\n{maps}\n")
        spec = tmp_path / "sets.json"
        spec.write_text(_spec('[{"states": [1]}]', '[{"states": [2]}]'))
        sets = ["--sets", spec] if argv[0] == "set-controllability" else []
        code, out, err = run(capsys, argv[0], mdl, *argv[1:], *sets)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1 and len(err) < 120, err
        for stages, n, p in self.AT_LIMIT.get(message, []):
            if "closure" in stages:
                need = compiler.closure_bytes(n, p if "outputs" in stages else 0, "emit" in stages)
                monkeypatch.setattr(compiler, "MAX_BYTES", need)
            elif "pairs" in stages:
                monkeypatch.setattr(compiler, "MAX_BYTES", compiler.pair_space_bytes(n, 0))
            compiler.check_size(n, 0, p, stages)

    @pytest.mark.parametrize("stages", [
        ("compile",), ("outputs",), ("closure",), ("closure", "emit"), ("outputs", "closure", "emit"),
        ("pairs",), ("reach_oracle",), ("distinguish_oracle",), ("dense_row",),
    ])
    def test_every_refusal_is_one_short_line(self, stages):
        # `--max-size` lets n and m grow past the defaults, and the byte
        # estimates pass 2^1024, so no refusal may print them in full.
        sizes = [*range(65), 5000, 10 ** 5]
        refused = 0
        for n in sizes:
            for m in sizes:
                for max_vars in {compiler.MAX_FLAT_VARS, max(n + m - 1, 1)}:
                    try:
                        compiler.check_size(n, m, m, stages, max_vars)
                    except compiler.SizeLimitError as e:
                        refused += 1
                        assert len(f"error: {e}") < 120 and "\n" not in str(e), str(e)
        assert refused

    @pytest.mark.parametrize("flags", [[], ["--emit-matrices"], ["--oracle"]])
    def test_too_many_outputs_refused_before_closure(self, capsys, tmp_path, monkeypatch, flags):
        # The output count is known right after compiling, so an 11-bit
        # counter with 21 outputs is refused without its 2047-round closure.
        def no_closure(m):
            raise AssertionError("closure computed before the output count was checked")

        monkeypatch.setattr(reach, "controllability_matrix", no_closure)
        xs = [f"x{k}" for k in range(1, 12)]
        ys = [f"y{k}" for k in range(1, 22)]
        rules = [f"{x}' = {x} ^ (" + " & ".join(["u"] + xs[:k]) + ")" for k, x in enumerate(xs)]
        maps = [f"{y} = {xs[k % 11]}" for k, y in enumerate(ys)]
        mdl = tmp_path / "counter11.bcn"
        mdl.write_text("\n".join([
            "network counter11", "states: " + ", ".join(xs), "inputs: u", "outputs: " + ", ".join(ys),
            *rules, *maps, "",
        ]))
        code, out, err = run(capsys, "output-controllability", mdl, *flags)
        assert (code, out) == (2, "")
        assert err == "error: model has 21 outputs; output controllability is limited to 20\n"
