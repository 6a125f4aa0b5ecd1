"""Command-line front end.

`bcn COMMAND MODEL [options]` is read from one table, `COMMANDS`, by a
small scanner instead of argparse, whose import and parser building cost
every run several milliseconds.  It reads argv as the argparse parser of
earlier versions did: options before or after MODEL, `--opt value` and
`--opt=value`, unique prefixes of long options, the last of repeated
options, `--` ending the options and -h/--help anywhere.  --help prints to
stdout and exits 0; a usage error prints the usage line and an `error:`
line to stderr and exits 2.

Exit codes: 0 when the queried property holds, 1 when it does not,
2 on usage, parse or size errors, oracle disagreement and internal faults.
`main` checks every size limit of a command with one `compiler.check_size`
call before compiling, and each command runs its analysis and --oracle
check before printing, so a refusal prints nothing.

Every run pays for each module it imports, so only `compiler` and
`netlang` load with this module: each command imports the engine it runs
(`reach` or `observe`) and, under --oracle only, `oracle`.  Engine calls
go through the module (`reach.controllability_matrix(...)`), so a patched
module attribute is what runs.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import compiler, netlang


class CliError(Exception):
    pass


def _load_model(path: str) -> netlang.NetworkModel:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # its text ends with the path
        raise CliError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read model file: {exc}: {path!r}") from exc
    try:
        return netlang.parse_network(text)
    except netlang.NetworkParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _emit(*named) -> None:
    for title, mat in named:
        print(f"{title}:")
        print(mat.to_text())


def _oracle_status(agree: bool | None, status: int) -> int:
    """Print the oracle line if --oracle ran (agree is not None); a disagreement exits 2."""
    if agree is None:
        return status
    print("oracle: agree" if agree else "oracle: DISAGREE")
    return status if agree else 2


def _load_sets(path: str, n: int) -> tuple[reach.SetFamily, reach.SetFamily]:
    from . import reach
    try:
        with open(path, encoding="utf-8") as fh:
            p0, pd = reach.load_set_spec(fh.read(), n)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad set specification: {exc}") from exc
    for w in p0.duplicates() + pd.duplicates():
        print(f"warning: {w}", file=sys.stderr)
    return p0, pd


def cmd_compile(args, model, form) -> int:
    print(compiler.render_algebraic(form), end="")
    return 0


def cmd_controllability(args, model, form) -> int:
    from . import reach
    m = reach.one_step_matrix(form)
    c = reach.controllability_matrix(m)
    agree = None
    if args.oracle:
        from . import oracle
        agree = oracle.reach_oracle(model) == c
    holds = c.is_all_ones()
    print("controllable" if holds else "not controllable")
    if args.emit_matrices:
        _emit(("M", m), ("C", c))
    return _oracle_status(agree, 0 if holds else 1)


def cmd_set_controllability(args, model, form) -> int:
    from . import reach
    c = reach.controllability_matrix(reach.one_step_matrix(form))
    j0, jd = map(reach.index_matrix, args.families)
    cs = reach.set_controllability_matrix(c, j0, jd)
    agree = None
    if args.oracle:
        from . import oracle
        agree = reach.set_controllability_matrix(oracle.reach_oracle(model), j0, jd) == cs
    holds = cs.is_all_ones()
    print("set controllable" if holds else "not set controllable")
    if args.emit_matrices:
        _emit(("C", c), ("J0", j0), ("Jd", jd), ("C_S", cs))
    return _oracle_status(agree, 0 if holds else 1)


def cmd_output_controllability(args, model, form) -> int:
    from . import reach
    c = reach.controllability_matrix(reach.one_step_matrix(form))
    cy = reach.output_controllability_matrix(c, form)
    agree = None
    if args.oracle:
        from . import oracle
        agree = reach.output_controllability_matrix(oracle.reach_oracle(model), form) == cy
    holds = cy.is_all_ones()
    print("output controllable" if holds else "not output controllable")
    if args.emit_matrices:
        _emit(("C", c), ("C_Y", cy))
    return _oracle_status(agree, 0 if holds else 1)


def cmd_observability(args, model, form) -> int:
    from . import boolmat, observe
    report = observe.observability_verdict(form, want_witnesses=args.witness)
    agree = None
    if args.oracle:
        from . import oracle
        agree = dict(oracle.distinguish_oracle(model)) == dict(zip(report.theta, report.flags))
    cs_row = None
    if args.emit_matrices and report.flags:
        bits = sum(1 << k for k, f in enumerate(report.flags) if f)
        cs_row = boolmat.BooleanMatrix(1, len(report.flags), [bits])
    print(observe.render_report(report, cs_row))
    return _oracle_status(agree, 0 if report.observable else 1)


#: Every option a command may take: its metavar (None for a flag) and help.
OPTIONS = {
    "--max-size": ("BITS", "override the n+m flat-compilation limit"),
    "--sets": ("SETS", "JSON set-specification file (required)"),
    "--emit": ("{algebraic}", "the form to emit"),
    "--emit-matrices": (None, "dump the analysis matrices in canonical text form"),
    "--witness": (None, "attach shortest distinguishing control sequences"),
    "--oracle": (None, "cross-check against the brute-force oracle"),
}
_REACH_OPTIONS = ("--max-size", "--emit-matrices", "--oracle")
#: Every command: its handler, its help, the `compiler.check_size` stages
#: it always meets, the one --oracle adds, and its options.
COMMANDS = {
    "compile": (cmd_compile, "emit the algebraic form (L and H)", (), None, ("--max-size", "--emit")),
    "controllability": (cmd_controllability, "decide controllability", ("closure",), "reach_oracle",
                        _REACH_OPTIONS),
    "set-controllability": (cmd_set_controllability, "decide set controllability", ("closure",), "reach_oracle",
                            ("--max-size", "--sets", "--emit-matrices", "--oracle")),
    "output-controllability": (cmd_output_controllability, "decide output controllability",
                               ("outputs", "closure"), "reach_oracle", _REACH_OPTIONS),
    "observability": (cmd_observability, "decide observability", ("pairs",), "distinguish_oracle",
                      ("--max-size", "--emit-matrices", "--witness", "--oracle")),
}
_HELP = ("-h", "--help")


class UsageError(Exception):
    """A refused command line: args are the command (None before one) and the message."""


def _usage(command: str | None) -> str:
    return f"usage: bcn {command or '{' + ','.join(COMMANDS) + '}'} MODEL [options]"


def _help(command: str | None) -> None:
    if command is None:
        about = ("Boolean control network analysis (controllability, set controllability, "
                 "output controllability, observability).")
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        about, options = COMMANDS[command][1], COMMANDS[command][4]
        rows = [("MODEL", ".bcn model file"), *((f"{o} {OPTIONS[o][0] or ''}", OPTIONS[o][1]) for o in options)]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    print(_usage(command), "", about, "", *(f"  {left:<24}{text}" for left, text in rows), sep="\n")


def _option(word: str, command: str | None) -> tuple[str, str | None] | None:
    """argparse's reading of one word: None for a positional, else (the
    option, spelled in full if `word` is a unique prefix, or `word` itself
    if unknown; the value after "=" or the letters after -h, or None)."""
    names = (*_HELP, *COMMANDS[command][4]) if command else _HELP
    if word[:1] != "-" or word in ("-", "--"):
        return None
    head, eq, tail = word.partition("=")
    if word in names or eq and head in names:
        return head, tail if eq else None
    if word[1] == "-":
        hits = [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            raise UsageError(command, f"ambiguous option: {word} could match {', '.join(hits)}")
        if hits:
            return hits[0], tail if eq else None
    elif word[1] == "h":
        return "-h", word[2:]
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else (word, None)


def _checked(command: str | None, option: str, value: str | None):
    """What `option` sets, checked as argparse checked it: a flag takes no
    value (but -h may run on as -hh), --max-size a positive int, --emit
    only "algebraic"."""
    problem = None
    if OPTIONS.get(option, (None,))[0] is None:
        if value is not None and not (option == "-h" and value and not value.strip("h")):
            problem = f"ignored explicit argument {value!r}"
        value = True
    elif option == "--emit" and value != "algebraic":
        problem = f"invalid choice: {value!r} (choose from 'algebraic')"
    elif option == "--max-size":
        try:
            value = int(value)
        except ValueError:
            raise UsageError(command, f"argument {option}: invalid int value: {value!r}") from None
        problem = None if value > 0 else f"must be positive, got {value}"
    if problem:
        raise UsageError(command, f"argument {option}: {problem}")
    return value


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argv read as argparse read it: the args, or None once --help printed."""
    k = 0
    while k < len(argv) and (found := _option(argv[k], None)):
        if found[0] in _HELP:
            _checked(None, *found)
            return _help(None)
        k += 1
    if k == len(argv) or argv[k] not in COMMANDS:
        raise UsageError(None, f"invalid command: {argv[k]!r}" if argv[k:] else "a command is required")
    unknown, command, rest = argv[:k], argv[k], argv[k + 1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    words = [(word, _option(word, command)) for word in rest[:cut]]  # an ambiguous prefix fails first
    args = SimpleNamespace(command=command, sets=None, max_size=compiler.MAX_FLAT_VARS, emit="algebraic",
                           emit_matrices=False, witness=False, oracle=False)
    positionals, found = [], None
    while words:
        word, found = words.pop(0)
        if found is None:
            positionals.append(word)
        elif found[0] not in (*_HELP, *COMMANDS[command][4]):
            unknown.append(word)
        else:
            option, value = found
            if value is None and OPTIONS.get(option, (None,))[0]:
                if not words or words[0][1] is not None:
                    raise UsageError(command, f"argument {option}: expected one argument")
                value = words.pop(0)[0]
            value = _checked(command, option, value)
            if option in _HELP:
                return _help(command)
            setattr(args, option[2:].replace("-", "_"), value)
    if positionals and found and cut < len(rest):
        unknown.append("--")  # argparse refuses a "--" that options part from MODEL
    positionals += rest[cut + 1:]
    sets_missing = command == "set-controllability" and args.sets is None
    for name, gap in (("MODEL", not positionals), ("--sets", sets_missing)):
        if gap:
            raise UsageError(command, f"the following arguments are required: {name}")
    if unknown or positionals[1:]:
        raise UsageError(command, f"unrecognized arguments: {' '.join(unknown + positionals[1:])}")
    args.model = positionals[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(_usage(exc.args[0]), f"error: {exc.args[1]}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        return 0
    func, _, stages, oracle_stage, _ = COMMANDS[args.command]
    flagged = {"emit": args.emit_matrices, oracle_stage: args.oracle}
    stages = ("compile", *stages, *(stage for stage, on in flagged.items() if on))
    try:
        model = _load_model(args.model)
        if model.p == 0 and args.command in ("output-controllability", "observability"):
            raise CliError(f"model declares no outputs; {args.command.replace('-', ' ')} is undefined")
        compiler.check_size(model.n, model.m, model.p, stages, args.max_size)
        if args.sets is not None:
            args.families = _load_sets(args.sets, model.n)
        return func(args, model, compiler.algebraic_form(model, args.max_size))
    except (CliError, ValueError) as exc:
        # ValueError covers compiler.SizeLimitError, the one size-limit error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: an internal fault must exit 2, never 1, which
        # reads as "fails".
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
