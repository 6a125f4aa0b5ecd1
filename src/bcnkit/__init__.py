"""Boolean control network toolkit: DSL front end, matrix compilation,
and controllability/observability analyses over the Boolean semiring.

Every `bcn` run pays for each module it imports, so the package imports
nothing up front: a name below loads its home module on first use
(PEP 562), and `bcn` loads only the modules its subcommand runs.
"""

import importlib

_EXPORTS = {
    "boolmat": ("BooleanMatrix",),
    "compiler": ("AlgebraicForm", "LogicalMatrix", "algebraic_form", "decode_state", "encode_state",
                 "structure_matrix"),
    "netlang": ("NetworkModel", "parse_expr", "parse_network"),
    "observe": ("distinguishing_witness", "observability_verdict"),
    "reach": (
        "SetFamily",
        "StateSet",
        "controllability_matrix",
        "one_step_matrix",
        "output_controllability_matrix",
        "set_controllability_matrix",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
