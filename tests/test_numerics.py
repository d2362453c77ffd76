"""``numerics.brentq`` and ``numerics.nelder_mead`` against scipy as the
oracle, and ``numerics.write_rows`` against Python's per-value ``%.17g``.

Each port must be scipy's algorithm step for step, so every check is exact:
the same root or minimizer (``==``, sign of zero included), the same
sequence of points at which f is evaluated, and the same exception type
and message or convergence flag.  The writer must print the same bytes.
"""

import io
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize

from beliefmkt import numerics
from beliefmkt.equilibrium import simulate_path
from beliefmkt.errors import BracketError, SaturationError
from beliefmkt.numerics import (brentq, check_finite, nelder_mead,
                                solve_decreasing, write_rows)
from conftest import assert_same_text, benchmark_market

REPO = Path(__file__).resolve().parents[1]

# (xtol, rtol): the default, feedback.solve_step, numerics.solve_decreasing,
# and a coarse pair whose wide delta reaches the step rule's ``- delta``
TOLERANCES = [(2e-12, 8.881784197001252e-16), (1e-13, 8.9e-16),
              (5e-14, 8.9e-16), (1e-2, 1e-6)]

_LSE_WEIGHTS = np.log([0.2, 0.5, 0.3])
_LSE_CENTERS = np.array([-0.4, 0.1, 0.9])


def _lse_residual(c):
    # the shape of a feedback step: x minus a log-sum-exp of gaussian
    # log-density updates, evaluated in numpy and returned as np.float64
    def f(x):
        terms = _LSE_WEIGHTS - (1.0 + c[0] ** 2) * (x - _LSE_CENTERS) ** 2
        top = terms.max()
        return c[1] + x - (top + np.log(np.exp(terms - top).sum()))
    return f


FAMILIES = [
    lambda c: lambda x: math.exp(c[0] * x) - math.exp(c[1]),
    lambda c: lambda x: math.tanh(c[0] * (x - c[1])) + 1e-3 * c[2],
    lambda c: lambda x: math.sin(3.0 * c[0] * x) + c[1] * x - c[2],
    lambda c: lambda x: c[1] * math.atan(x - c[0]) + 1e-9 * c[2],
    lambda c: lambda x: math.log1p(math.exp(c[0] * x)) - c[1] * x - 0.5,
    _lse_residual,
]


def _solve(solver, f, a, b, **kw):
    """Root (or exception type and message) and the points f was asked at."""
    points = []

    def traced(x):
        points.append(x)
        return f(x)

    try:
        return solver(traced, a, b, **kw), points
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), points


def _assert_same(f, a, b, **kw):
    mine, mine_points = _solve(brentq, f, a, b, **kw)
    ref, ref_points = _solve(scipy_brentq, f, a, b, **kw)
    assert mine == ref, (a, b, kw)
    if isinstance(ref, float):
        assert type(mine) is float
        assert math.copysign(1.0, mine) == math.copysign(1.0, ref)
    assert mine_points == ref_points, (a, b, kw)
    return ref


@pytest.mark.parametrize("xtol, rtol", TOLERANCES)
def test_roots_bit_identical_to_scipy(xtol, rtol):
    rng = random.Random(f"{xtol}/{rtol}")
    converged = 0
    for i in range(2400):
        c = [rng.uniform(-3.0, 3.0) for _ in range(3)]
        f = FAMILIES[i % len(FAMILIES)](c)
        a, b = rng.uniform(-5.0, 0.5), rng.uniform(-0.5, 5.0)
        if rng.random() < 0.5:
            a, b = b, a
        if isinstance(_assert_same(f, a, b, xtol=xtol, rtol=rtol), float):
            converged += 1
    # the same-sign brackets check error parity; the rest find a root
    assert converged > 1000


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-100, 1e100, 1e160,
                                   1e300])
def test_roots_bit_identical_for_extreme_function_scales(scale):
    # products of tiny slopes underflow to a zero divisor and huge ones
    # overflow to inf; C and Python must take the same (bisection) step
    rng = random.Random(repr(scale))
    for i in range(200):
        c = [rng.uniform(-3.0, 3.0) for _ in range(3)]
        g = FAMILIES[i % len(FAMILIES)](c)
        _assert_same(lambda x: scale * g(x), -4.0, 4.5, xtol=1e-13,
                     rtol=8.9e-16)


def test_endpoint_root_returned_as_given():
    def shifted(x):
        return x - 0.25

    def identity(x):
        return x

    for f, a, b, root in [(shifted, 0.25, 2.0, 0.25),
                          (shifted, -3.0, 0.25, 0.25),
                          (identity, 0.0, 1.0, 0.0),
                          (identity, -0.0, 1.0, -0.0),
                          (identity, 1.0, -0.0, -0.0),
                          # f(x) == -0.0 counts as zero too
                          (lambda x: -0.0 * x, 2.0, 3.0, 2.0)]:
        assert _assert_same(f, a, b) == root
        assert math.copysign(1.0, brentq(f, a, b)) == math.copysign(1.0, root)
    # numpy endpoints come back as Python floats, as from scipy
    assert type(brentq(identity, np.float64(0.0), 1.0)) is float


def test_error_parity_with_scipy():
    def expm(x):
        return math.exp(x) - 1.3

    # same sign at both ends
    assert _assert_same(expm, 0.5, 1.0)[0] is ValueError
    # NaN at a (f(b) is never evaluated), at b, and mid-iteration
    for nan_at in (0.0, 1.0):
        assert _assert_same(lambda x: math.nan if x == nan_at else expm(x),
                            0.0, 1.0)[0] is ValueError
    assert _assert_same(lambda x: math.nan if 0.2 < x < 0.3 else expm(x),
                        0.0, 1.0)[0] is ValueError
    # too few iterations
    for maxiter in (0, 1, 2, 3):
        assert _assert_same(expm, 0.0, 1.0, maxiter=maxiter)[0] \
            is RuntimeError
    # arguments outside scipy's accepted range
    for kw in (dict(xtol=0.0), dict(xtol=-1e-12), dict(rtol=1e-16),
               dict(maxiter=-1)):
        assert _assert_same(expm, 0.0, 1.0, **kw)[0] is ValueError


# ---------------------------------------------------------------------------
# solve_decreasing's bracket


def _bracket_ends(n_doublings):
    """The points [1/2, 2] and each of its doublings evaluates, in order."""
    return [x for k in range(n_doublings + 1)
            for x in (0.5 / 2.0 ** k, 2.0 * 2.0 ** k)]


def test_bracket_without_sign_change_raises_after_200_doublings():
    points = []

    def positive(x):
        points.append(x)
        return 1.0

    with pytest.raises(BracketError, match="after 200 expansions"):
        solve_decreasing(positive)
    assert points == _bracket_ends(200)


@pytest.mark.parametrize("root, n_doublings", [
    (0.5, 0), (2.0, 0), (0.125, 2), (32.0, 4)])
def test_root_at_a_bracket_end_returned_as_it_is(root, n_doublings):
    points = []

    def f(x):
        points.append(x)
        return root - x

    got = solve_decreasing(f)
    assert got == root and type(got) is float
    # no Brent step: only the bracket ends were evaluated
    assert points == _bracket_ends(n_doublings)


# ---------------------------------------------------------------------------
# Nelder-Mead


def _scipy_nelder_mead(f, x0, maxiter, xatol, fatol):
    res = minimize(f, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": xatol,
                            "fatol": fatol})
    return res.x, res.success


def _minimize(solver, f, x0, maxiter, xatol, fatol):
    """(x, converged) and the points f was asked at, as bytes."""
    points = []

    def traced(x):
        points.append(x.tobytes())
        value = f(x)
        # the solver must hand f a copy that f may overwrite
        x[:] = np.nan
        return value

    x, converged = solver(traced, x0, maxiter, xatol, fatol)
    return x, converged, points


def _assert_same_search(f, x0, maxiter, xatol=1e-4, fatol=1e-6):
    """Run both searches; return scipy's evaluation count."""
    x, converged, points = _minimize(nelder_mead, f, x0, maxiter, xatol,
                                     fatol)
    ref_x, ref_converged, ref_points = _minimize(_scipy_nelder_mead, f, x0,
                                                 maxiter, xatol, fatol)
    assert points == ref_points, (x0, maxiter)
    assert np.all(x == ref_x) and x.tobytes() == ref_x.tobytes()
    assert converged == ref_converged
    return len(ref_points), ref_converged


def _random_quadratic(rng, dim):
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + 0.1 * np.eye(dim)
    c = rng.normal(size=dim)
    return lambda x: float((x - c) @ a @ (x - c)) + 1.0


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_nelder_mead_bit_identical_on_random_quadratics(dim):
    rng = np.random.default_rng(1000 + dim)
    converged = 0
    for i in range(40):
        f = _random_quadratic(rng, dim)
        x0 = rng.normal(scale=3.0, size=dim)
        xatol, fatol = [(1e-4, 1e-6), (1e-4, 1e-4), (1e-9, 1e-12)][i % 3]
        converged += _assert_same_search(f, x0, 200 * dim, xatol, fatol)[1]
    assert converged > 30


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.0], [2.0, -1.0, 0.5],
                                [-1.0, 0.5, 1.5, 0.8]])
def test_nelder_mead_bit_identical_on_rosenbrock(x0):
    # start coordinates of exactly 0 take the ``zdelt`` simplex step
    _assert_same_search(_rosenbrock, np.array(x0), 400 * len(x0), 1e-8,
                        1e-10)


def test_nelder_mead_zero_start_coordinates():
    rng = np.random.default_rng(7)
    for x0 in ([0.0], [0.0, 1.3], [-0.0, 0.0, 2.0], [1.0, 0.0, -0.5, 0.0]):
        f = _random_quadratic(rng, len(x0))
        _assert_same_search(f, np.array(x0), 100)


def _plateau(rng, dim):
    # inf outside a random half-space, and a staircase of tied values
    # inside it, so that the sorts meet ties between infs and finite values
    normal = rng.normal(size=dim)
    f = _random_quadratic(rng, dim)

    def g(x):
        if x @ normal > 0.5:
            return math.inf
        return math.floor(4.0 * f(x)) / 4.0
    return g


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_nelder_mead_bit_identical_with_inf_plateaus(dim):
    rng = np.random.default_rng(2000 + dim)
    for _ in range(30):
        _assert_same_search(_plateau(rng, dim),
                            rng.normal(scale=2.0, size=dim), 60 * dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_nelder_mead_bit_identical_with_nan_values(dim):
    rng = np.random.default_rng(3000 + dim)
    for _ in range(30):
        f = _random_quadratic(rng, dim)
        normal = rng.normal(size=dim)
        _assert_same_search(
            lambda x: math.nan if x @ normal < -0.3 else f(x),
            rng.normal(scale=2.0, size=dim), 60 * dim)


@pytest.mark.parametrize("maxiter", [1, 2, 3])
def test_nelder_mead_iteration_limit(maxiter):
    # maxiter counts the initial simplex as iteration 1, so maxiter = 1
    # evaluates only the simplex; a run that hits the limit has not converged
    rng = np.random.default_rng(maxiter)
    for dim in (1, 2, 3, 4):
        f = _random_quadratic(rng, dim)
        n_evals, converged = _assert_same_search(
            f, rng.normal(size=dim), maxiter)
        assert not converged
        if maxiter == 1:
            assert n_evals == dim + 1


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_nelder_mead_shrink_step(dim):
    # from an all-inf start every reflection and inside contraction fails,
    # so each iteration shrinks the simplex towards its first vertex, whose
    # choice among the tied infs is np.argsort's
    n_evals, _ = _assert_same_search(
        lambda x: math.inf if x.sum() > -1.0 else 0.0,
        np.arange(1.0, dim + 1.0), 12)
    assert n_evals == (dim + 1) + 11 * (2 + dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nelder_mead_warns_nothing_on_infinite_vertices(dim):
    # once the all-inf shrink search is within xatol, its fatol test meets
    # inf - inf, where scipy warns; the port runs warning-free under an
    # "error" filter and evaluates the same points
    f = lambda x: math.inf if x.sum() > -1.0 else 0.0
    x0 = np.arange(1.0, dim + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref_x, ref_converged, ref_points = _minimize(
            _scipy_nelder_mead, f, x0, 30, 1e-4, 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, converged, points = _minimize(nelder_mead, f, x0, 30, 1e-4, 1e-6)
    assert points == ref_points
    assert x.tobytes() == ref_x.tobytes() and converged == ref_converged


# ---------------------------------------------------------------------------
# write_rows


def rows_by_value(table):
    """The CSV text of ``table`` written one ``format(v, ".17g")`` per value."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in table.tolist())


def rows_text(table):
    fp = io.StringIO()
    write_rows(fp, table)
    return fp.getvalue()


def from_bits(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack(
        "<Q", sign << 63 | exponent << 52 | mantissa))[0]


# biased exponents: 0 (zeros, subnormals), 2047 (infinities, NaN payloads)
# and both ends of the vectorized range, 1e-250 and 1e250
_EDGE_EXPONENTS = [0, 1, 2047, 2046, 191, 192, 193, 1853, 1854]
doubles = st.builds(
    from_bits, st.integers(0, 1),
    st.one_of(st.integers(0, 2047), st.sampled_from(_EDGE_EXPONENTS)),
    st.one_of(st.integers(0, 2 ** 52 - 1), st.sampled_from([0, 1])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda cols: st.lists(doubles, min_size=cols, max_size=60 * cols).map(
        lambda v: np.array(v[:len(v) // cols * cols]).reshape(-1, cols))))
def test_write_rows_matches_per_value_format_on_any_bits(table):
    assert rows_text(table) == rows_by_value(table)


def _near(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


NAMED = {
    # exact ties at the 17th digit, which round half to even
    "ties": [1234567890123456.75, 1234567890123456.25, 0.5, 2.5,
             12345678901234567.0 / 2 ** 20],
    # 10^k and its neighbours, where log10 may round onto the power
    "powers": [v for k in range(-20, 21) for v in _near(float(f"1e{k}"))]
    + _near(1e-240),
    # the doubles 1e-243, 1e-176 and 1e-79 lie just below their powers
    # of ten, and their 17 digits round up to them
    "nines": [99999999999999999.0, 9.999999999999999e16,
              9.9999999999999999e-5, 0.99999999999999994, 1e-243, 1e-176,
              1e-79],
    # both sides of each switch between fixed and exponent notation
    "notation": [1.2345e-5, 1.2345e-4, 1.2345e16, 1.2345e17, 1e-5, 1e-4,
                 1e16, 1e17, 123.0, 100.0],
    "special": [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                -2.2250738585072014e-308, 1.7976931348623157e308, 1e-300,
                1e300, 1e-250, 1e250],
}


@pytest.mark.parametrize("case", sorted(NAMED))
def test_write_rows_matches_per_value_format_on_named_values(case):
    values = np.array(NAMED[case])
    for table in (values[:, None], np.stack((values, -values), 1)):
        assert rows_text(table) == rows_by_value(table)


def test_write_rows_matches_per_value_format_across_chunks():
    # wider than one chunk of values in both directions
    rng = np.random.default_rng(5)
    table = rng.standard_normal((3 * numerics._CHUNK_VALUES // 7 + 5, 7)) \
        * 10.0 ** rng.integers(-8, 20, size=(1, 7))
    assert_same_text(rows_text(table), rows_by_value(table))
    assert rows_text(table[:0]) == ""


def test_path_values_take_the_vectorized_digits():
    # a silent fall-back to % on every value would print the same bytes,
    # only slower: the certify mask must hold for every ordinary value
    path = simulate_path(benchmark_market(), 3.0, 1 / 252, seed=17)
    values = np.concatenate([
        np.ravel(a) for a in (path.times, path.x, path.dividend, path.stock,
                              path.pd_ratio, path.rate, path.kappa,
                              path.stock_vol, path.q, path.wealth,
                              path.consumption, path.holdings)])
    # 10^k +- 1 ulp, where log10 may round onto the power, too; the one
    # below 1e15 is a tie at 17 digits
    powers = [v for v in NAMED["powers"] if v != 999999999999999.875]
    values = np.concatenate((values[values != 0], powers))
    ok, n, k = numerics._decimal(values)
    assert ok.all()
    assert ((n >= 10 ** 16) & (n < 10 ** 17)).all()


# ---------------------------------------------------------------------------
# check_finite


_COLUMNS = ("t", "a", "b", "c")


def test_check_finite_passes_a_finite_table():
    check_finite(_COLUMNS, np.array([
        [0.0, -0.0, 5e-324, 1.7976931348623157e308],
        [0.5, -1e-300, 1e300, -1.7976931348623157e308]]))


@pytest.mark.parametrize("cells, message", [
    # an earlier row in a later column wins over a later row in an earlier
    # column
    ([(2, 1), (1, 3)], "column c is not finite at t=0.25"),
    # within a row, the first column wins
    ([(1, 3), (1, 2)], "column b is not finite at t=0.25"),
    ([(2, 0)], "column t is not finite at t=inf")])
def test_check_finite_names_the_first_value_row_by_row(cells, message):
    table = np.array([[0.0, 1.0, 2.0, 3.0], [0.25, 1.0, 2.0, 3.0],
                      [0.5, 1.0, 2.0, 3.0]])
    for (i, j), value in zip(cells, (np.inf, np.nan)):
        table[i, j] = value
    with pytest.raises(SaturationError, match=f"^{re.escape(message)}$"):
        check_finite(_COLUMNS, table)


def test_check_finite_names_a_level_of_0():
    # a 0 in a column of levels is a level that underflowed, the first
    # failing value row by row wins, and a 0 elsewhere (t, a share) passes
    names = ("t", "w_1", "delta", "S")
    table = np.array([[0.0, 0.0, 1.0, 2.0], [0.5, 0.0, 5e-324, -0.0],
                      [1.0, 0.0, 0.0, np.inf]])
    with pytest.raises(SaturationError, match=r"^column S is 0 at t=0\.5$"):
        check_finite(names, table)
    table[1, 3] = np.nan
    with pytest.raises(SaturationError,
                       match=r"^column S is not finite at t=0\.5$"):
        check_finite(names, table)
    table[1, 3] = 1.0
    with pytest.raises(SaturationError,
                       match=r"^column delta is 0 at t=1\.0$"):
        check_finite(names, table)


_IMPORT_PROBE = """
import sys
import beliefmkt.cli
from beliefmkt import numerics
print(sorted({"fractions", "decimal"} & set(sys.modules)),
      numerics._scale_table.cache_info().currsize,
      numerics._layout_table.cache_info().currsize)
"""


def test_import_loads_no_number_modules_and_builds_no_table():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=REPO,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "0", "0"]
