from pathlib import Path

import pytest

from bcnkit.compiler import algebraic_form
from bcnkit.netlang import parse_network

MODELS = Path(__file__).resolve().parent.parent / "models"

try:
    from hypothesis import settings
except ImportError:  # a test extra: only the tests that use it need it
    pass
else:
    # `pytest --hypothesis-profile fuzz`: the long run of the generated-input
    # fuzz, CI's own step; tier-1 keeps Hypothesis's default of 100 examples.
    settings.register_profile("fuzz", max_examples=5000)


def load_model(name):
    return parse_network((MODELS / name).read_text())


def counter_text(n):
    """The n-bit counter: xk' = xk ^ (u & x1 & ... & x(k-1)), y = x1 & ... & xn."""
    xs = [f"x{k}" for k in range(1, n + 1)]
    lines = [f"network counter{n}", "states: " + ", ".join(xs), "inputs: u", "outputs: y"]
    for k in range(n):
        lines.append(f"{xs[k]}' = {xs[k]} ^ (" + " & ".join(["u"] + xs[:k]) + ")")
    lines.append("y = " + " & ".join(xs))
    return "\n".join(lines) + "\n"


def rotation_text(n, output):
    """Input u applies a Toffoli gate after a rotation: x1' = xn ^ (u & x1 & x2),
    xk' = x(k-1) for k >= 2, y = output."""
    xs = [f"x{k}" for k in range(1, n + 1)]
    lines = [f"network rotation{n}", "states: " + ", ".join(xs), "inputs: u", "outputs: y",
             f"x1' = x{n} ^ (u & x1 & x2)", *(f"x{k}' = x{k - 1}" for k in range(2, n + 1)), f"y = {output}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def toy_model():
    return load_model("toy.bcn")


@pytest.fixture(scope="session")
def toy_form(toy_model):
    return algebraic_form(toy_model)


@pytest.fixture(scope="session")
def lac_case1_form():
    return algebraic_form(load_model("lac_case1.bcn"))


@pytest.fixture(scope="session")
def lac_case2_form():
    return algebraic_form(load_model("lac_case2.bcn"))
