"""Command-line front end.

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

import argparse
import sys

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="bcn",
        description="Boolean control network analysis (controllability, "
        "set controllability, output controllability, observability).",
    )
    sub = root.add_subparsers(dest="command", required=True)

    def common(name, help, func, stages=(), oracle_stage=None, sets=False, witness=False):
        # `stages` and, with --oracle, `oracle_stage` name the command's size checks.
        p = sub.add_parser(name, help=help)
        p.add_argument("model", help=".bcn model file")
        p.add_argument("--max-size", type=_positive_int, default=compiler.MAX_FLAT_VARS,
                       metavar="BITS", help="override the n+m flat-compilation limit")
        if sets:
            p.add_argument("--sets", required=True, help="JSON set-specification file")
        if oracle_stage:
            p.add_argument("--emit-matrices", action="store_true",
                           help="dump the analysis matrices in canonical text form")
            if witness:
                p.add_argument("--witness", action="store_true",
                               help="attach shortest distinguishing control sequences")
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the brute-force oracle")
        p.set_defaults(func=func, stages=stages, oracle_stage=oracle_stage,
                       emit_matrices=False, oracle=False)  # compile has neither flag
        return p

    p = common("compile", "emit the algebraic form (L and H)", cmd_compile)
    p.add_argument("--emit", choices=["algebraic"], default="algebraic")
    common("controllability", "decide controllability", cmd_controllability,
           ("closure",), "reach_oracle")
    common("set-controllability", "decide set controllability", cmd_set_controllability,
           ("closure",), "reach_oracle", sets=True)
    common("output-controllability", "decide output controllability", cmd_output_controllability,
           ("outputs", "closure"), "reach_oracle")
    common("observability", "decide observability", cmd_observability,
           ("pairs",), "distinguish_oracle", witness=True)
    return root


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code.
        return int(exc.code or 0)
    flagged = {"emit": args.emit_matrices, args.oracle_stage: args.oracle}
    stages = ("compile", *args.stages, *(stage for stage, on in flagged.items() if on))
    try:
        model = _load_model(args.model)
        if model.p == 0 and args.command in ("output-controllability", "observability"):
            raise CliError(f"model declares no outputs; {args.command.replace('-', ' ')} is undefined")
        compiler.check_size(model.n, model.m, model.p, stages, args.max_size)
        if "sets" in args:
            args.families = _load_sets(args.sets, model.n)
        return args.func(args, model, compiler.algebraic_form(model, args.max_size))
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
