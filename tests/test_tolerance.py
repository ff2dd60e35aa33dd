"""The tolerance policy: one module holds every float threshold, and its verdict
decides rational questions exactly."""

import importlib
import inspect
import pkgutil
import re
import tokenize
from fractions import Fraction as F
from pathlib import Path

import isospec
from isospec.tolerance import ZERO, at_most, is_exact, signed

PACKAGE = Path(isospec.__file__).parent


def test_no_threshold_literal_outside_the_policy_module():
    """A number with a negative exponent (1e-9, 2.5E-3) is a float threshold;
    only tolerance.py may write one.  Strings and comments may cite values."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerance.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, found


def _public_parameters():
    """(module.function, parameters) of every public function of the package."""
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"isospec.{info.name}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            yield f"{info.name}.{name}", inspect.signature(fn).parameters


def test_no_public_function_takes_a_tolerance():
    banned = {"tol", "zero_tol", "ortho_tol", "max_iters"}
    found = [f"{fn}({p})" for fn, params in _public_parameters() for p in params if p in banned]
    assert not found, found


def test_no_public_function_takes_optional_precomputed_data():
    """A function that needs a cut table, iota reports or a spectrum either
    builds it or requires it; none computes it only when the caller left it
    out.  A chain's cut table is memoized on it, so every n shares it."""
    optional = {"reports", "iso_report", "spectrum_report"}
    found = [
        f"{fn}({p})"
        for fn, params in _public_parameters()
        for p, param in params.items()
        if p == "table" or (p in optional and param.default is None)
    ]
    assert not found, found


def test_at_most_is_exact_on_rationals():
    assert at_most(F(1), F(1))
    assert at_most(1, F(3, 2))
    assert not at_most(F(1) + F(1, 10 ** 15), F(1))
    assert not at_most(2, 1)


def test_at_most_gives_a_float_side_slack():
    assert at_most(1.0 + 1e-12, 1.0)
    assert at_most(F(1) + F(1, 10 ** 15), 1.0)
    assert not at_most(1.0 + 1e-6, 1.0)
    assert not at_most(1.0, -1.0)


def test_is_exact():
    assert is_exact(F(1, 3), 2, 0)
    assert is_exact()
    assert not is_exact(True)
    assert not is_exact(F(1), 0.5)


def test_signed_keeps_an_exact_vector():
    f = (F(1, 10 ** 20), 0, -F(1, 10 ** 20))
    assert signed(f) == list(f)


def test_signed_zeroes_small_float_entries():
    assert signed((ZERO, -ZERO, 2 * ZERO, -0.5, 0.0)) == [0, 0, 2 * ZERO, -0.5, 0]
