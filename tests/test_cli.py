import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bcnkit import cli, compiler, observe, reach
from bcnkit.cli import main
from conftest import counter_text

MODELS = Path(__file__).resolve().parent.parent / "models"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _model(tmp_path, name):
    """The path of a shipped model, or of the n-bit counter `counter<n>` written to tmp_path."""
    if not name.startswith("counter"):
        return MODELS / f"{name}.bcn"
    path = tmp_path / f"{name}.bcn"
    path.write_text(counter_text(int(name.removeprefix("counter"))))
    return path


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

    def test_comment_only_model(self, capsys, tmp_path):
        bad = tmp_path / "comment.bcn"
        bad.write_text("# nothing but a comment\n")
        code, out, err = run(capsys, "compile", bad)
        assert (code, out, err) == (2, "", f"error: {bad}: line 1, col 1: empty model\n")


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
        pytest.param(_spec("[]"), id="empty-family"),
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

    def test_emit_matrices(self, capsys):
        code, out, err = run(capsys, "output-controllability", MODELS / "toy.bcn", "--emit-matrices")
        assert (code, err) == (0, "")
        assert out == "output controllable\nC:\n4 4\n1111\n1111\n0010\n1111\nC_Y:\n2 4\n1111\n1111\n"

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
#: (the 3- to 7-bit counters and the shipped models) and each flag set, in
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
    "counter7": (  # the benchmark's own observe jobs
        "d914c3eab5c57dfe743846653d9faf9674aaa9bdc114c4dd93931fda70ad69b1",
        "4e2e041a1334105ce1ad59e1da866a4a80bed5ae195d5a6f697b8e0d02124446",
        "bafdcdd0be1c920b40f6acc11160dc25b7a558cf1905b114b18ada6fe669def8",
        "4513ae055e8030e47e84cc3ea636bc6008829134ff5ac6a43ffd06e6c6dcf52a",
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


#: The flag sets of the reach commands whose output is pinned below.
REACH_FLAGS = {
    "plain": [],
    "emit": ["--emit-matrices"],
    "oracle": ["--oracle"],
    "emit-oracle": ["--emit-matrices", "--oracle"],
}

#: The set specification of `bcn set-controllability` on every model but
#: toy, which is run with its two shipped ones.
WRITTEN_SETS = '{"initial": [{"states": [1]}, {"states": [2, 3]}], "destination": [{"states": [2]}]}'

#: sha256 of "<exit code>\n<stdout>" of each reach command on each model
#: (the 3- to 6-bit counters and the shipped models) and, for
#: set-controllability, each set specification ("written" is WRITTEN_SETS),
#: in the order of REACH_FLAGS.  lac_operon declares no outputs, so
#: output-controllability refuses it with exit 2.
REACH_DIGESTS = {
    ("controllability", "counter3"): (
        "d5e69f0b13423dd82e2e00703c69431ccce7a30c5b798d52c174284e2131498a",
        "2df4d4e3b00608fe2d73a41f579aed757fe2be8e10826962b0d183d0ad912873",
        "e0398707943a3bf83f80de7383ec1c19fa0b25095b65b08eff3b0b1aaccfcaf8",
        "0f9bdf41516ee637af13b9c2e03edcc594125355a9f6be84e9720a6cc965eebb",
    ),
    ("controllability", "counter4"): (
        "d5e69f0b13423dd82e2e00703c69431ccce7a30c5b798d52c174284e2131498a",
        "9e4b1aa340bca2c9080f6b47afd84304d9e1fc70552e2457d8420e26d3e36e3b",
        "e0398707943a3bf83f80de7383ec1c19fa0b25095b65b08eff3b0b1aaccfcaf8",
        "21226239228558418b16cb8013901e14474f2357fb4105c0e9cc5ecfad23c3a3",
    ),
    ("controllability", "counter5"): (
        "d5e69f0b13423dd82e2e00703c69431ccce7a30c5b798d52c174284e2131498a",
        "ef976698118ae9d6f4ce8782dba2eeca2e6294fc931639c46352fa8ea0a7f0d3",
        "e0398707943a3bf83f80de7383ec1c19fa0b25095b65b08eff3b0b1aaccfcaf8",
        "1fb790a55b41a429d7335a610f86d49c369fdad9bfd800ba8cb28b9138fea59a",
    ),
    ("controllability", "counter6"): (
        "d5e69f0b13423dd82e2e00703c69431ccce7a30c5b798d52c174284e2131498a",
        "998bcf247b240236161c1afa32bbb5fbeb27b81a0ff2d1f8773f55816606934d",
        "e0398707943a3bf83f80de7383ec1c19fa0b25095b65b08eff3b0b1aaccfcaf8",
        "36c66e58f57e2a3303c14195bebb042e14492d2beba61f6bbcc1fd2df2526218",
    ),
    ("controllability", "lac_case1"): (
        "d0ae8fc2660505f4b35f4b9f827a5b329064a81714344d6691b714c5284f19e9",
        "41b70d3c41d515c16dc5127483153523bdabf481c4267b736dc2f2337457fc15",
        "b07a9dc040ebb687394b4cfb4d91e9c57470c1d640c2204de06becaf56e36063",
        "907754263140c441f7d82c2d68f78b289ac606deaf7007a0f72dcb771cb2f8d2",
    ),
    ("controllability", "lac_case2"): (
        "d0ae8fc2660505f4b35f4b9f827a5b329064a81714344d6691b714c5284f19e9",
        "41b70d3c41d515c16dc5127483153523bdabf481c4267b736dc2f2337457fc15",
        "b07a9dc040ebb687394b4cfb4d91e9c57470c1d640c2204de06becaf56e36063",
        "907754263140c441f7d82c2d68f78b289ac606deaf7007a0f72dcb771cb2f8d2",
    ),
    ("controllability", "lac_operon"): (
        "d0ae8fc2660505f4b35f4b9f827a5b329064a81714344d6691b714c5284f19e9",
        "41b70d3c41d515c16dc5127483153523bdabf481c4267b736dc2f2337457fc15",
        "b07a9dc040ebb687394b4cfb4d91e9c57470c1d640c2204de06becaf56e36063",
        "907754263140c441f7d82c2d68f78b289ac606deaf7007a0f72dcb771cb2f8d2",
    ),
    ("controllability", "toy"): (
        "d0ae8fc2660505f4b35f4b9f827a5b329064a81714344d6691b714c5284f19e9",
        "e1d9b29c88e68ff274f70aa2d8ece98d820af37d6aa81eccf4973df66d861747",
        "b07a9dc040ebb687394b4cfb4d91e9c57470c1d640c2204de06becaf56e36063",
        "2234168df2fc088872f9036f2494f37cdeecc8dc0c6d491798313025a4188928",
    ),
    ("set-controllability", "counter3", "written"): (
        "261466982149cae0f8b17ca5c08f5c934e8edec12660cb909bc94803b5d7b970",
        "e8896e61fd6c82471dd24601df7c8b36b038192bf9eb22d96f858c441c2ca7db",
        "d17fa4f806ef72e144926761cca3246f0e16b378428ab5b7b3da86fb215022c4",
        "9ac692de033c1295b8f6130b86eb66c7ee2e5c251cd8f60a7c3ba09aec2042e1",
    ),
    ("set-controllability", "counter4", "written"): (
        "261466982149cae0f8b17ca5c08f5c934e8edec12660cb909bc94803b5d7b970",
        "cfd399b6252d82f6ca50533875bf46853021b37825d2ca80142817672a62a783",
        "d17fa4f806ef72e144926761cca3246f0e16b378428ab5b7b3da86fb215022c4",
        "2a9c2f2124b189e4da880cf490eea404fbfc2c8667bccff00ff4b85ffdc94dee",
    ),
    ("set-controllability", "counter5", "written"): (
        "261466982149cae0f8b17ca5c08f5c934e8edec12660cb909bc94803b5d7b970",
        "fcdafde80e5dd42fa709760882e177a8b9efb1009cb16426fe284d1847bc88ad",
        "d17fa4f806ef72e144926761cca3246f0e16b378428ab5b7b3da86fb215022c4",
        "6746477416aa1dea668aae76b2b12ab48ab9e03450fa7dd8d9658152dae16afd",
    ),
    ("set-controllability", "counter6", "written"): (
        "261466982149cae0f8b17ca5c08f5c934e8edec12660cb909bc94803b5d7b970",
        "39c3f6590af9bd6dc1c7dde012495d39529a566a20b4831cb51bf977fd70132c",
        "d17fa4f806ef72e144926761cca3246f0e16b378428ab5b7b3da86fb215022c4",
        "1df2094d387bbf9f980d23c16302af4c848e4f50a32bfbcd50409e29f6c5161b",
    ),
    ("set-controllability", "lac_case1", "written"): (
        "3e9ff5e0878567543e05e63afb50b935e5f8d2ea0f5bdbbaf42e5fb6cbea29ed",
        "3cad3c2580f45c3119dd46ff4c7832c51d5f77857f0f6980aa9776c395f3616c",
        "8e63271e983c067e63b45811b9c7640122037b1ad17a52dc979a6f216af5d151",
        "883d989501e481ea9a5244e7f9853d1de3debcb046055ba88876a8a878e84573",
    ),
    ("set-controllability", "lac_case2", "written"): (
        "3e9ff5e0878567543e05e63afb50b935e5f8d2ea0f5bdbbaf42e5fb6cbea29ed",
        "3cad3c2580f45c3119dd46ff4c7832c51d5f77857f0f6980aa9776c395f3616c",
        "8e63271e983c067e63b45811b9c7640122037b1ad17a52dc979a6f216af5d151",
        "883d989501e481ea9a5244e7f9853d1de3debcb046055ba88876a8a878e84573",
    ),
    ("set-controllability", "lac_operon", "written"): (
        "3e9ff5e0878567543e05e63afb50b935e5f8d2ea0f5bdbbaf42e5fb6cbea29ed",
        "3cad3c2580f45c3119dd46ff4c7832c51d5f77857f0f6980aa9776c395f3616c",
        "8e63271e983c067e63b45811b9c7640122037b1ad17a52dc979a6f216af5d151",
        "883d989501e481ea9a5244e7f9853d1de3debcb046055ba88876a8a878e84573",
    ),
    ("set-controllability", "toy", "toy_sets_reachable"): (
        "261466982149cae0f8b17ca5c08f5c934e8edec12660cb909bc94803b5d7b970",
        "4de2b4eaca2c00478927e46b3fa9e3149731b914f31b321d9e5b0e78220ff95e",
        "d17fa4f806ef72e144926761cca3246f0e16b378428ab5b7b3da86fb215022c4",
        "9198b08ab0120e63ccd0345ab686a9206695069eb9075e5c82a02f138f138ae8",
    ),
    ("set-controllability", "toy", "toy_sets_unreachable"): (
        "3e9ff5e0878567543e05e63afb50b935e5f8d2ea0f5bdbbaf42e5fb6cbea29ed",
        "c0bb73b4e1d039dcff75c70c29f41c8bc6ce881954c357814884ae1feb3ee60e",
        "8e63271e983c067e63b45811b9c7640122037b1ad17a52dc979a6f216af5d151",
        "3a0e602c3b46747af7a6760e796357903c89641deca9dd9a64ae835f62aab166",
    ),
    ("output-controllability", "counter3"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "150e22f82dfdb0899961123ea29e456ea5b67cd3438003a3552fc854e7632614",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "3f1d85d62069c6827e3870f6e6a7677c36e924e4b2203f620dc2ee094491a124",
    ),
    ("output-controllability", "counter4"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "c9a136b4e51a1f9b67b7e1e8c404c59eb364dec4a51f96d9377350e68f4b0895",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "d648b70b48c9e4d596ad8e7809abbcf607d611413f94c5d63df1ec527aebb9be",
    ),
    ("output-controllability", "counter5"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "6aa25f59082a48722463f1e0c5be1385e75d30c0d9bde93e31de468cbff35450",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "abebc21d910e0504a5e4b2cd9019739129ab0132ea54963ce145a56446485d97",
    ),
    ("output-controllability", "counter6"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "33ba064107af14fc04cefdaf01ee2f1f8ccb4667dddf90ac7ee23cc05a72b6f5",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "aab7597b978dda0650ef816c8ea562e3223aabd487170fbb1ab81ec4f7e1a4d1",
    ),
    ("output-controllability", "lac_case1"): (
        "e178a3a30629fbc824b7b3aab2fd89ff1c6631acb9682a417e352188409b4255",
        "ca9aceb0845b07b44a468254ca1c5d58d626cf82b2a6e8d89b352801d8a0701e",
        "923b85297494c65bcbfdda8c9514ea820aef2c90d4f921190c17e0730c5aa952",
        "780b7567c45015c4a4b70a77ac3960546e26461671b156a2009499d648423aee",
    ),
    ("output-controllability", "lac_case2"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "451fdda8ae2fe9c497e754bcea164e2888d77866e5721653fabc8b3512f250f3",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "05e65007ed747cf877e87a86154f0d421ac82ce57df26099249b85adc1ff13bc",
    ),
    ("output-controllability", "lac_operon"): (
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    ("output-controllability", "toy"): (
        "6510f9f525f2fbf0d1185f9f5007a422c29ea1ac4f1617b0f8f28f91ab0f92a1",
        "ebff726b281892e6df5a5b501ede79434715c20583ada442fbf13a3fc24ab57b",
        "4fd279bf975a1da3a376dbb1d5d4bb09efb8c15f0ba6f74c4289ac8ee46cab18",
        "28dc83a01ac3afa455daa2ab536c462bf69e42758d09529de7d2a371c1066923",
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name, flags", [
        (name, flags) for name in OBSERVABILITY_DIGESTS for flags in OBSERVABILITY_FLAGS
    ], ids=lambda value: value)
    def test_observability_bytes(self, capsys, tmp_path, name, flags):
        code, out, _ = run(capsys, "observability", _model(tmp_path, name), *OBSERVABILITY_FLAGS[flags])
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        assert digest == OBSERVABILITY_DIGESTS[name][list(OBSERVABILITY_FLAGS).index(flags)]

    @pytest.mark.parametrize("case, flags", [
        (case, flags) for case in REACH_DIGESTS for flags in REACH_FLAGS
    ], ids=lambda value: "-".join(value) if isinstance(value, tuple) else value)
    def test_reach_bytes(self, capsys, tmp_path, case, flags):
        command, name, *spec = case
        sets = ["--sets", MODELS / f"{spec[0]}.json"] if spec else []
        if spec == ["written"]:
            sets[1] = tmp_path / "sets.json"
            sets[1].write_text(WRITTEN_SETS)
        code, out, _ = run(capsys, command, _model(tmp_path, name), *REACH_FLAGS[flags], *sets)
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        assert digest == REACH_DIGESTS[case][list(REACH_FLAGS).index(flags)]

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
    "-- after an option's value": ["compile", TOY, "--max-size", "3", "--"],
    "option before the command": ["--max-size", "5", "compile", TOY],
    "abbreviated command": ["comp", TOY],
    "error before -h": ["controllability", TOY, "--max-size", "abc", "-h"],
}

#: Usage errors that quote a 300-character word: the word is cut, so
#: every line on stderr stays under 120 characters.
LONG = "x" * 300
LONG_WORDS = {
    "unknown option": ["observability", TOY, "--" + LONG],
    "unknown command": [LONG, TOY],
    "ambiguous prefix": ["observability", TOY, "--=" + LONG],
    "--max-size not an int": ["controllability", TOY, "--max-size", LONG],
    "--max-size not positive": ["controllability", TOY, "--max-size", "-" + "9" * 300],
    "--emit bad value": ["compile", TOY, "--emit", LONG],
    "value on a flag": ["observability", TOY, "--witness=" + LONG],
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
    "-hh for --help": (["compile", "-hh"], ["compile", "--help"]),
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

    @pytest.mark.parametrize("argv", LONG_WORDS.values(), ids=LONG_WORDS)
    def test_long_word_is_cut(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert max(map(len, err.splitlines())) < 120, err
        assert [line for line in err.splitlines() if line.startswith("error:") and "..." in line], err

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
        "flat compilation of 2^25 columns": [(("compile",), 24, 1)],
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
        # Admitted by --max-size, refused by the compile estimate.
        (["compile", "--max-size", "30"], 25, 1, "flat compilation of 2^25 columns"),
        (["observability", "--max-size", "30"], 25, 1, "flat compilation of 2^25 columns"),
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
            compiler.check_size(n, 0, p, stages, max(n, compiler.MAX_FLAT_VARS))

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
                for max_vars in {compiler.MAX_FLAT_VARS, max(n + m - 1, 1), n + m}:
                    try:
                        compiler.check_size(n, m, m, stages, max_vars)
                    except compiler.SizeLimitError as e:
                        refused += 1
                        assert len(f"error: {e}") < 120 and "\n" not in str(e), str(e)
        assert refused

    @pytest.mark.parametrize("command, owner, name", [
        ("controllability", reach, "controllability_matrix"),
        ("observability", observe, "observability_verdict"),
        ("observability", cli, "_option"),  # while argv is read
    ], ids=["controllability", "observability", "argv"])
    def test_internal_fault_exits_2(self, capsys, monkeypatch, command, owner, name):
        # A fault inside an engine, or anywhere else, is not an answer:
        # exit 2, never 1, with one `internal error` line naming the
        # exception.
        def fault(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(owner, name, fault)
        code, out, err = run(capsys, command, MODELS / "toy.bcn")
        assert (code, out, err) == (2, "", "error: internal error: RuntimeError: engine fault\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    @pytest.mark.parametrize("argv", [["compile", "toy.bcn"], ["observability", "lac_case2.bcn", "--witness"]],
                             ids=["compile", "witness"])
    def test_failed_stdout_write_exits_2(self, argv, sink, unbuffered):
        # A full disk and a pipe whose reader is gone refuse every write.
        # Buffered, the write fails at the last flush; unbuffered, inside
        # print.  Either way the run exits 2 with one `error:` line, and
        # shutdown's own flush does not report the failure again.
        src = str(Path(observe.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if sink == "full":
            out = os.open("/dev/full", os.O_WRONLY)
        else:
            reader, out = os.pipe()
            os.close(reader)
        try:
            proc = subprocess.run([sys.executable, "-m", "bcnkit.cli", *argv], stdout=out, stderr=subprocess.PIPE,
                                  text=True, env=env, cwd=MODELS, timeout=60)
        finally:
            os.close(out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write output: "), proc.stderr
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 120, proc.stderr

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
