import hashlib
from pathlib import Path

import pytest

from bcnkit import compiler, reach
from bcnkit.cli import main
from conftest import counter_text

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

    def test_model_not_utf8(self, capsys, tmp_path):
        # A decoding failure is reported like any unreadable model file.
        bad = tmp_path / "latin1.bcn"
        bad.write_bytes(b"\xffnetwork x\nstates: a\na' = a\n")
        code, out, err = run(capsys, "compile", bad)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read model file: ") and err.count("\n") == 1
        assert repr(str(bad)) in err

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


#: The flag sets of `bcn observability` whose output is pinned below.
OBSERVABILITY_FLAGS = {
    "plain": [],
    "witness": ["--witness"],
    "emit": ["--emit-matrices"],
    "witness-emit": ["--witness", "--emit-matrices"],
}

#: sha256 of "<exit code>\n<stdout>" of `bcn observability` for each model
#: (the 3- to 6-bit counters and the shipped models) and each flag set, in
#: the order of OBSERVABILITY_FLAGS.  An engine change that moves one byte
#: of a verdict, witness or C_S row fails here.
OBSERVABILITY_DIGESTS = {
    "counter3": (
        "f647225080f1ab28ac7f6573b695e688d76233a14db2cc1359c96c5e602ccee3",
        "8c209939a8e0160e42fca1f5a6c397a718b709e8e5bdc76d98435ac67023b75c",
        "0373c36941f3a129a802db8d3e848a97e12675551aa70b628f615c7100b03e65",
        "33d6e62a6db8291aa045b44da7c7c0201c23f4c34f900d9016a8ac740e778336",
    ),
    "counter4": (
        "ebcd5ae44ad9b690e3c460116f607a2ebeba00005b48980a63a6155fab1e225c",
        "bd7ee4f516b57ea243dfcfdcd68a60256553bdc0fa551bea70e4c3eaecca7920",
        "175e43427cd1f8bc85a609e7137d78b785475c47768bf53db1301ccc4786f330",
        "e8bdf52e07b10f7ffbd78ab339dd0f7b89297666f7dd60bfd5c2864977b098ff",
    ),
    "counter5": (
        "a3bf27fec7f42952264d175c010f0e8e43a2611ec8b0152a6a756bcdaed242c7",
        "0628e32ccfd426003a0f7d1f7f6ce7b97490e33e6f34aaa595767398747494e9",
        "5b87a94c0905047b317563fb1cbd090521bacefc0ffbb21d0766560478ceaef1",
        "21f68ce8622396ae6eed23496fa49b37e47032c6cef2cf4b7769df74ddd3ae67",
    ),
    "counter6": (
        "237c0dbf856b738083ff08b71cc44a1114025d66051d70072300cb9c9e75258a",
        "26c2f50a1589b5416de33d477f8009b9157f88ba5fcf7e15b5eba43d22635ed3",
        "44e13c459c71d21f0e7791bc31b198b0d2fc0ec97715a6ba0138d0056bc08c4d",
        "5d6f8546e4f3e18db80c1c77dc1247ce30a736667540ea82c8f5bc81a62f083f",
    ),
    "lac_case1": (
        "b0415be8c91c35afbf30f6e954528e5189384ec2cc0b5ea614bd72116aae11c8",
        "5b5fccb869b246a7ec753ce3bdbabbf4cbcc7416e43a161b9a522d57f87ad4d3",
        "9e4233b17297550ebf4260e5fb8f731731ba741a28b0a28f5180bb46cd3b6150",
        "d4b6bfb06a4aabc66742c6d7088076439ed6dc46c5824b6d5d3918ec09efee65",
    ),
    "lac_case2": (
        "4b01ccd464194926af4d0b5df8e4ce1128a3cabfabd564ca372e47c57cde1953",
        "153351c7bb7b7679fa6018ea37872ec83f72339d14f838da848f36b08d20c2fc",
        "b9868a60ceefda3f12d31c1c6df0e73cd1fb97a468e595dca78847410d290ad8",
        "257fe380d2057e487c83deebcb5efd9d6d6259d84d3698393b778bb371d8f938",
    ),
    "lac_operon": (
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    "toy": (
        "091460b89b490ce6d2cb2fcf32bdd628eca61716c0790fb6228f94827528b07b",
        "9f9280242976d124bf31268f8e00276cbbb5f8fdfa7d39a6e29ec0a2f56ddf56",
        "14c949dc7293f603492ed7856ecbb5f5100ceee0f24ccd049a1fc9b79ab7155f",
        "3b8d65b1cddb49eb933d386a0453307a539772c716a4009b040c1e3edb03c22f",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name, flags", [
        (name, flags) for name in OBSERVABILITY_DIGESTS for flags in OBSERVABILITY_FLAGS
    ], ids=lambda value: value)
    def test_observability_bytes(self, capsys, tmp_path, name, flags):
        path = MODELS / f"{name}.bcn"
        if name.startswith("counter"):
            path = tmp_path / f"{name}.bcn"
            path.write_text(counter_text(int(name.removeprefix("counter"))))
        code, out, _ = run(capsys, "observability", path, *OBSERVABILITY_FLAGS[flags])
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        assert digest == OBSERVABILITY_DIGESTS[name][list(OBSERVABILITY_FLAGS).index(flags)]

TOY = str(MODELS / "toy.bcn")
CASE2 = str(MODELS / "lac_case2.bcn")
SETS = ["--sets", str(MODELS / "toy_sets_reachable.json")]

#: Command lines that are usage errors: each exits 2 with empty stdout.
REJECTED = {
    "no arguments": [],
    "unknown command": ["frobnicate", TOY],
    "unknown option": ["observability", TOY, "--nope"],
    "missing model": ["compile"],
    "missing model, options only": ["observability", "--witness"],
    "missing --sets": ["set-controllability", TOY],
    "--max-size abc": ["controllability", TOY, "--max-size", "abc"],
    "--max-size 0": ["controllability", TOY, "--max-size", "0"],
    "--max-size -5": ["controllability", TOY, "--max-size", "-5"],
    "--max-size=-5": ["controllability", TOY, "--max-size=-5"],
    "--max-size without value": ["controllability", TOY, "--max-size"],
    "--emit bogus": ["compile", TOY, "--emit", "bogus"],
    "value on a flag": ["observability", TOY, "--witness=yes"],
    "flag of another command": ["compile", TOY, "--oracle"],
    "two models": ["compile", TOY, TOY],
    "option after --": ["compile", TOY, "--", "--max-size"],
    "option before the command": ["--max-size", "5", "compile", TOY],
    "abbreviated command": ["comp", TOY],
    "error before -h": ["controllability", TOY, "--max-size", "abc", "-h"],
}

#: Other spellings of a command line: each must give the same exit code
#: and stdout as the canonical spelling it is paired with.
ACCEPTED = {
    "--max-size=30": (["controllability", TOY, "--max-size=30"],
                      ["controllability", TOY, "--max-size", "30"]),
    "--wit for --witness": (["observability", CASE2, "--wit"], ["observability", CASE2, "--witness"]),
    "--emit for --emit-matrices": (["observability", CASE2, "--emit"],
                                   ["observability", CASE2, "--emit-matrices"]),
    "--ma=4 for --max-size": (["compile", TOY, "--ma=4"], ["compile", TOY, "--max-size", "4"]),
    "compile --emit=algebraic": (["compile", TOY, "--emit=algebraic"], ["compile", TOY]),
    "repeated flags": (["observability", CASE2, "--witness", "--witness", "--oracle", "--oracle"],
                       ["observability", CASE2, "--witness", "--oracle"]),
    "repeated values, last wins": (["observability", CASE2, "--max-size", "3", "--max-size", "6"],
                                   ["observability", CASE2]),
    "options before the model": (["set-controllability", *SETS, "--emit-matrices", TOY],
                                 ["set-controllability", TOY, *SETS, "--emit-matrices"]),
    "-- before the model": (["compile", "--", TOY], ["compile", TOY]),
    "options, then -- and the model": (["observability", "--witness", "--", CASE2],
                                       ["observability", CASE2, "--witness"]),
    "-- after the model": (["compile", TOY, "--"], ["compile", TOY]),
    "-h after other arguments": (["observability", TOY, "--witness", "-h"], ["observability", "--help"]),
    "-h before a usage error": (["controllability", "-h", TOY, "--max-size", "abc"],
                                ["controllability", "--help"]),
    "--he without --sets": (["set-controllability", TOY, "--he"], ["set-controllability", "--help"]),
    "--help before the command": (["--help", "frobnicate"], ["--help"]),
}

#: Every command's options and what may follow them, for the fuzz below.
FUZZ_WORDS = ["--max-size", "--sets", "--emit", "--emit-matrices", "--witness", "--oracle", "--help",
              "-h", "--", "-", "-5", "0", "3", "30", "abc", "algebraic", "", "-x", "--nope", "a b",
              *(str(p) for p in sorted(MODELS.iterdir())), str(MODELS / "missing.bcn")]
FUZZ_COMMANDS = ["compile", "controllability", "set-controllability", "output-controllability",
                 "observability", "frobnicate", "--help", "--"]


def _words():
    from hypothesis import strategies as st
    word = st.sampled_from(FUZZ_WORDS)
    # An option cut to a prefix, or given its value after "=".
    prefix = st.tuples(word, st.integers(2, 12)).map(lambda t: t[0][:t[1]] if t[0][:2] == "--" else t[0])
    attached = st.tuples(word, word).map(lambda t: f"{t[0]}={t[1]}" if t[0][:2] == "--" else t[0])
    return st.lists(st.one_of(word, prefix, attached), max_size=6)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_sets(self, capsys):
        assert main(["set-controllability", str(MODELS / "toy.bcn")]) == 2

    @pytest.mark.parametrize("argv", [[], ["compile"], ["controllability"], ["set-controllability"],
                                      ["output-controllability"], ["observability"]],
                             ids=lambda argv: " ".join(["bcn", *argv]))
    def test_help(self, capsys, argv):
        # --help is answered before a command imports its engine.
        code, out, err = run(capsys, *argv, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: bcn", *argv]))

    @pytest.mark.parametrize("argv", REJECTED.values(), ids=REJECTED)
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: bcn") and [line for line in err.splitlines() if "error:" in line], err

    @pytest.mark.parametrize("argv, canonical", ACCEPTED.values(), ids=ACCEPTED)
    def test_same_meaning_as_canonical_spelling(self, capsys, argv, canonical):
        code, out, err = run(capsys, *argv)
        assert (code, out) == run(capsys, *canonical)[:2]
        assert code in (0, 1) and out, err

    def test_fuzz_exit_contract(self):
        # Whatever the arguments, the exit code is 0, 1 or 2, no fault
        # escapes as an internal error, and exit 2 prints nothing on stdout.
        import contextlib
        import io

        from hypothesis import given, seed, settings
        from hypothesis import strategies as st

        @seed(20261019)
        @settings(max_examples=150, deadline=None, database=None)
        @given(st.sampled_from(FUZZ_COMMANDS), _words())
        def check(command, words):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *words])
            assert code in (0, 1, 2), (command, words, code)
            assert "internal error:" not in err.getvalue(), err.getvalue()
            if code == 2:
                assert out.getvalue() == "", (command, words)

        check()


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
        "distinguishability oracle is limited to 3n+m <= 27": [(("distinguish_oracle",), 9, 1)],
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
        (["observability", "--oracle"], 11, 1, "distinguishability oracle is limited to 3n+m <= 27"),
        (["output-controllability"], 2, 0, "model declares no outputs; output controllability is undefined"),
        (["observability", "--witness"], 2, 0, "model declares no outputs; observability is undefined"),
        # Admitted by the earlier 2n <= 20 bound, which took minutes here.
        (["observability", "--oracle"], 10, 1, "distinguishability oracle is limited to 3n+m <= 27"),
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
