"""The kernel's exp, 2**u - 1 and log2 (swiptfog._ieee): accuracy against
the C library and a 40-digit decimal reference, exact and special values,
bits that do not depend on an element's place in its array, the guard
that keeps the kernel modules off the C library's transcendentals, and the
split between the kernel and the energy ledger it is checked against."""

import ast
import inspect
import math
import warnings
from decimal import Context, Decimal

import numpy as np
import pytest

from swiptfog import _ieee, allocator, channel, energy, sim
from swiptfog import params as params_module


def _ulps(got, want):
    """Distance in units in the last place, element-wise, between two
    float64 arrays of finite values."""
    def ordered(a):
        i = np.asarray(a, dtype=float).view(np.int64)
        return np.where(i < 0, np.int64(-2**63) - i, i)
    return np.abs(ordered(got) - ordered(want))


def test_exp_within_one_ulp_of_the_c_library():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.uniform(-708.0, 709.0, 100_000),
                        rng.uniform(-1.0, 1.0, 20_000),
                        rng.choice([-1.0, 1.0], 20_000)
                        * 10.0 ** rng.uniform(-20.0, 0.0, 20_000),
                        [-708.0, 709.0, 0.5 * math.log(2.0)]])
    want = np.array([math.exp(v) for v in x.tolist()])
    assert _ulps(_ieee.exp(x), want).max() <= 1


def test_log2_within_two_ulp_of_the_c_library():
    rng = np.random.default_rng(2)
    x = 1.0 + 10.0 ** np.concatenate([rng.uniform(-12.0, 9.0, 100_000),
                                      [-12.0, 9.0]])
    want = np.array([math.log2(v) for v in x.tolist()])
    assert _ulps(_ieee.log2(x), want).max() <= 2


def test_exp2m1_within_one_ulp_of_a_decimal_reference():
    rng = np.random.default_rng(3)
    u = np.concatenate([10.0 ** rng.uniform(-12.0, math.log10(60.0), 6_000),
                        rng.uniform(0.4, 1.6, 2_000),  # k = 0, 1 and 2
                        [1e-12, 0.5, 1.5, 60.0]])
    ctx = Context(prec=40)
    want = np.array([float(ctx.subtract(ctx.power(2, Decimal(v)), 1))
                     for v in u.tolist()])
    ulps = _ulps(_ieee.exp2m1(u), want)
    assert ulps.max() <= 1
    # the compensated sum leaves almost every element correctly rounded
    assert (ulps == 0).mean() >= 0.95


def test_exact_values():
    assert _ieee.log2(1.0) == 0.0
    assert _ieee.exp(0.0) == 1.0
    assert np.array_equal(_ieee.log2(2.0 ** np.arange(-1074, 1024)),
                          np.arange(-1074, 1024))
    assert np.array_equal(_ieee.exp2m1(np.arange(1.0, 53.0)),
                          2.0 ** np.arange(1.0, 53.0) - 1.0)


_TINY = [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]


@pytest.mark.parametrize("fn,cases", [
    (_ieee.exp, [(math.inf, math.inf), (-math.inf, 0.0), (math.nan, math.nan),
                 (0.0, 1.0), (-0.0, 1.0), (710.0, math.inf), (1e300, math.inf),
                 (-746.0, 0.0), (-1e300, 0.0), (-745.1, math.exp(-745.1)),
                 (-740.0, math.exp(-740.0))]
     + [(v, 1.0) for v in _TINY]),
    (_ieee.log2, [(math.inf, math.inf), (-math.inf, math.nan),
                  (math.nan, math.nan), (0.0, -math.inf), (-0.0, -math.inf),
                  (-1.0, math.nan), (-5e-324, math.nan)]
     + [(v, math.log2(v)) for v in _TINY if v > 0.0]),
    (_ieee.exp2m1, [(math.inf, math.inf), (-math.inf, -1.0),
                    (math.nan, math.nan), (0.0, 0.0), (1024.0, math.inf),
                    (1e300, math.inf), (-80.0, -1.0), (-1e300, -1.0)]
     + [(v, math.expm1(v * math.log(2.0))) for v in _TINY]),
])
def test_special_values_are_the_c_librarys_without_warnings(fn, cases):
    x = np.array([c[0] for c in cases])
    want = np.array([c[1] for c in cases])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = fn(x)
        alone = [float(fn(v)) for v in x.tolist()]
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert np.array_equal(alone, want, equal_nan=True)


@pytest.mark.parametrize("fn,low,high", [
    (_ieee.exp, -740.0, 709.0), (_ieee.log2, -300.0, 300.0),
    (_ieee.exp2m1, -12.0, 1.8)])
def test_bits_do_not_depend_on_the_place_in_the_array(fn, low, high):
    rng = np.random.default_rng(4)
    values = rng.uniform(low, high, 200)
    if fn is not _ieee.exp:
        values = 10.0 ** values
    want = np.array([fn(v) for v in values.tolist()])  # one element each
    big = rng.uniform(0.5, 2.0, 50_000)
    places = rng.choice(big.size, values.size, replace=False)
    big[places] = values
    shifted = np.empty(values.size + 1)[1:]  # off the allocation's alignment
    shifted[:] = values
    raw = np.zeros(values.size * 8 + 1, dtype=np.uint8)
    unaligned = np.ndarray(values.shape, dtype=float, buffer=raw, offset=1)
    unaligned[:] = values
    assert not unaligned.flags.aligned
    for got in (fn(big)[places], fn(shifted), fn(unaligned),
                fn(values.reshape(20, 10)).ravel()):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_results_keep_the_input_shape_and_leave_it_unchanged():
    x = np.full((2, 3), 0.75)
    for fn in (_ieee.exp, _ieee.exp2m1, _ieee.log2):
        assert fn(x).shape == (2, 3)
        assert fn(0.75).shape == ()
    assert (x == 0.75).all()


_C_LIBRARY_UFUNCS = {"hypot", "exp", "exp2", "expm1", "log", "log2", "log10",
                     "log1p", "power", "float_power"}
_MATH_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "pow", "cbrt",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
    "tanh", "asinh", "acosh", "atanh", "hypot", "dist", "erf", "erfc",
    "gamma", "lgamma"}
# The kernel modules' C-library calls that stay, by module, defining
# function and kind of call: none of them is evaluated per frame.  numpy's
# exp, log and power ufuncs and _libm are allowed nowhere.
_ALLOWED = {
    ("swiptfog.channel", "pathloss_db", "math.log10"):
        "the path-loss formula, once per configuration",
    ("swiptfog.channel", "_to_amplitudes", "**"):
        "10.0 ** x turns the path loss into an amplitude scale, once per "
        "configuration",
    ("swiptfog.channel", "draw_rician", "math.cos"):
        "the one-frame reference draw's phase; the kernel's stream has none",
    ("swiptfog.channel", "draw_rician", "math.sin"):
        "the one-frame reference draw's phase; the kernel's stream has none",
    ("swiptfog.params", "db_to_linear", "**"):
        "10.0 ** x of the Rician K factor, once per configuration",
}


def _integer_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def _c_library_uses(node, function=None):
    """(innermost enclosing function, kind, line) of every C-library
    transcendental that the code under node takes: _libm, numpy's exp, log
    and power ufuncs, math's transcendentals, and ** (kind "**") with an
    exponent that is not an integer literal."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    kind = None
    if isinstance(node, ast.ImportFrom):
        names = {a.name for a in node.names}
        if (node.module or "").endswith("_libm") or any("libm" in n for n in names):
            kind = f"import of {node.module}"
        elif node.module == "numpy" and names & _C_LIBRARY_UFUNCS:
            kind = f"from numpy import {sorted(names & _C_LIBRARY_UFUNCS)}"
        elif node.module == "math" and names & _MATH_TRANSCENDENTALS:
            kind = f"from math import {sorted(names & _MATH_TRANSCENDENTALS)}"
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = node.value.id
        if ((module in ("np", "numpy") and node.attr in _C_LIBRARY_UFUNCS)
                or (module == "math" and node.attr in _MATH_TRANSCENDENTALS)):
            kind = f"{module}.{node.attr}"
    elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
          and not _integer_literal(node.right)):
        kind = "**"
    uses = [] if kind is None else [
        (function, kind, getattr(node, "lineno", None))]
    for child in ast.iter_child_nodes(node):
        uses += _c_library_uses(child, function)
    return uses


@pytest.mark.parametrize("module", [_ieee, allocator, channel, params_module,
                                    sim],
                         ids=lambda m: m.__name__)
def test_kernel_modules_use_no_c_library_transcendentals(module):
    """The kernel's values must not depend on the C library or on numpy's
    vector loops: no _libm, no np.hypot, no numpy exp, log or power, no
    math exp, log, pow or trigonometry and no ** with a non-integer exponent,
    except the (function, kind) pairs of _ALLOWED, each of which must still
    occur."""
    uses = _c_library_uses(ast.parse(inspect.getsource(module)))
    found = [u for u in uses if (module.__name__, *u[:2]) not in _ALLOWED]
    assert not found, found
    allowed = {(f, kind) for m, f, kind in _ALLOWED if m == module.__name__}
    assert allowed <= {u[:2] for u in uses}, "stale _ALLOWED entries"


# The kernel's functions.  Of the energy ledger they may use only its input
# guards, which compute no value.
_KERNEL_FUNCTIONS = (
    allocator.energy_per_op, allocator._strategy_arrays, allocator.solve_frames,
    allocator.lambert_w0, allocator._halley_pass, allocator.mode_rule_sides,
    allocator.choose_modes, allocator._affordable, sim._simulate,
    sim._trial_gains)
_LEDGER_GUARDS = {"_check_gain", "_check_slot"}


def _from_module(module, value) -> bool:
    return value is module or getattr(value, "__module__", None) == module.__name__


def _ledger_references(fn):
    """Names by which fn's code reaches the energy ledger: a global that is
    the energy module or an object it defines, an attribute of the module,
    or an import from it."""
    tree = ast.parse(inspect.getsource(fn))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if fn.__globals__.get(node.value.id) is energy:
                found.add(node.attr)
        elif isinstance(node, ast.Name):
            value = fn.__globals__.get(node.id)
            if value is not energy and _from_module(energy, value):
                found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("energy"):
                found.update(a.name for a in node.names)
    return found


def test_kernel_and_ledger_share_no_value_path():
    """energy imports nothing from _ieee, and the kernel takes no value from
    energy, so certify and the tests check the kernel against a ledger
    whose bits do not follow the kernel's."""
    tree = ast.parse(inspect.getsource(energy))
    imports = [n for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or "" for n in imports]
    names += [a.name for n in imports for a in n.names]
    assert not [n for n in names if "_ieee" in n], names
    assert not [k for k, v in vars(energy).items() if _from_module(_ieee, v)]
    for fn in _KERNEL_FUNCTIONS:
        used = _ledger_references(fn) - _LEDGER_GUARDS
        assert not used, (fn.__qualname__, sorted(used))
