"""The package's lazy exports, and the modules each `bcn` command loads:
every run pays for each module it imports, so a command loads only the
engine it runs, and no command loads argparse."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcnkit

ROOT = Path(__file__).resolve().parent.parent
TOY = str(ROOT / "models" / "toy.bcn")
SETS = ["--sets", str(ROOT / "models" / "toy_sets_reachable.json")]

#: Each exported name and the module it lives in.
HOME = {
    "AlgebraicForm": "compiler",
    "BooleanMatrix": "boolmat",
    "LogicalMatrix": "compiler",
    "NetworkModel": "netlang",
    "SetFamily": "reach",
    "StateSet": "reach",
    "algebraic_form": "compiler",
    "controllability_matrix": "reach",
    "decode_state": "compiler",
    "distinguishing_witness": "observe",
    "encode_state": "compiler",
    "observability_verdict": "observe",
    "one_step_matrix": "reach",
    "output_controllability_matrix": "reach",
    "parse_expr": "netlang",
    "parse_network": "netlang",
    "set_controllability_matrix": "reach",
    "structure_matrix": "compiler",
}


class TestLazyPackage:
    def test_all_is_unchanged(self):
        assert bcnkit.__all__ == list(HOME)

    @pytest.mark.parametrize("name", HOME)
    def test_name_is_its_home_object(self, name):
        home = importlib.import_module(f"bcnkit.{HOME[name]}")
        assert getattr(bcnkit, name) is getattr(home, name)

    def test_star_import_and_dir(self):
        ns: dict = {}
        exec("from bcnkit import *", ns)
        del ns["__builtins__"]
        assert ns == {name: getattr(bcnkit, name) for name in HOME}
        assert set(dir(bcnkit)) >= set(HOME)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="^module 'bcnkit' has no attribute 'nonesuch'$"):
            bcnkit.nonesuch  # noqa: B018
        assert not hasattr(bcnkit, "nonesuch")


#: The modules `python -m bcnkit.cli` loads on top of a bare start-up.
COMPILE_SET = {"bcnkit", "bcnkit.compiler", "bcnkit.netlang", "bcnkit.record"}
REACH_SET = COMPILE_SET | {"bcnkit.reach", "bcnkit.boolmat"}
OBSERVE_SET = COMPILE_SET | {"bcnkit.observe"}
RUNS = {
    "compile": (["compile", TOY], COMPILE_SET),
    "controllability": (["controllability", TOY], REACH_SET),
    "output-controllability": (["output-controllability", TOY], REACH_SET),
    "set-controllability": (["set-controllability", TOY, *SETS], REACH_SET),
    "observability": (["observability", TOY], OBSERVE_SET),
}
COMMANDS = {
    **RUNS,
    "controllability --emit-matrices": (["controllability", TOY, "--emit-matrices"], REACH_SET),
    "set-controllability --emit-matrices": (["set-controllability", TOY, *SETS, "--emit-matrices"], REACH_SET),
    "observability --witness --emit-matrices": (["observability", TOY, "--witness", "--emit-matrices"],
                                                OBSERVE_SET),
    **{f"{name} --oracle": ([*argv, "--oracle"], loaded | {"bcnkit.oracle"})
       for name, (argv, loaded) in RUNS.items() if name != "compile"},
}

# Runs `bcn <argv>` as `python -m bcnkit.cli` would and writes the exit
# code and the modules the run added to stderr, after the command's output.
CHILD = """\
import runpy, sys
sys.argv = ["bcn", *sys.argv[1:]]
before = set(sys.modules)
try:
    runpy.run_module("bcnkit.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, expected", COMMANDS.values(), ids=COMMANDS)
def test_command_loads_only_its_modules(argv, expected):
    # -S: no site hook may preload a module (json) before the count starts.
    src = str(Path(bcnkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *added = proc.stderr.split()
    assert code in ("0", "1"), proc.stderr
    assert {m for m in added if m.split(".")[0] == "bcnkit"} == expected
    assert ("json" in added) == (argv[0] == "set-controllability")
    # The command line is read without argparse, which with gettext costs
    # every run about 2-3 ms to import, and annotations need no typing.
    assert not {"argparse", "gettext", "typing"} & set(added)
