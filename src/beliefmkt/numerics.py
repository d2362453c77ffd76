"""Small numerical utilities: root brackets, Brent's method, the
Nelder-Mead simplex, sign-change scans and the ``%``-format CSV row writer.

``brentq`` and ``nelder_mead`` are ports of scipy's routines that give
scipy's roots and minimizers bit for bit, so root solving (feedback steps,
market clearing) and the ``fit`` search need numpy only."""

import math

import numpy as np

from .errors import BracketError

__all__ = ["brentq", "nelder_mead", "solve_decreasing", "scan_sign_changes",
           "write_rows"]

# rows per write in ``write_rows``: a few hundred rows amortize the write
# call while the text held in memory stays far below one path's arrays
_CHUNK_ROWS = 256
# smallest rtol that ``brentq`` accepts: 4 eps, as in scipy.optimize.brentq
_RTOL_MIN = 4 * np.finfo(float).eps
# Nelder-Mead reflection, expansion, contraction and shrink coefficients,
# and the relative and zero-coordinate steps of the initial simplex
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-by-line port of ``brentq.c`` from scipy.optimize and of the
    checks in its Python wrapper; scipy is "Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers", under the BSD-3-Clause license.  The operations run in the
    same order on the same doubles, so the root is bit-identical to
    ``scipy.optimize.brentq`` with the same arguments.

    An endpoint where f is exactly zero is returned as it is.  Raises
    ``ValueError`` when f(a) and f(b) have the same sign, when f returns
    NaN, or for ``xtol <= 0``, ``rtol`` below 4 eps or ``maxiter < 0``;
    ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # f values are never NaN and are tested for zero before their sign, so
    # ``fx < 0`` is C's signbit(fx) wherever it is used
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives +-inf or NaN here, which fails the
                # step test below just as inf does
                stry = math.inf
            # C's MIN(fabs(spre), 3*fabs(sbis) - delta)
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def nelder_mead(f, x0, maxiter, xatol, fatol):
    """Minimize f from x0 by the Nelder-Mead simplex (Nelder & Mead 1965).

    A line-by-line port of ``_minimize_neldermead`` from scipy 1.17.1's
    ``scipy.optimize`` (scipy is "Copyright (c) 2001-2002 Enthought, Inc.
    2003, SciPy Developers", under the BSD-3-Clause license), restricted to
    what ``minimize(f, x0, method="Nelder-Mead", options={"maxiter": ...,
    "xatol": ..., "fatol": ...})`` runs: the default initial simplex, the
    standard coefficients, no bounds, no ``adaptive`` and no limit on the
    number of evaluations.  The operations, reorders (``np.argsort`` and
    ``np.take``, so ties between infinite or NaN values order alike) and
    calls of f run in the same order on the same doubles, so the result is
    bit-identical to scipy's.

    f receives a copy of the point as a float64 array and returns a float.
    Returns ``(x, converged)``: the best vertex, and whether the tolerances
    were met within ``maxiter`` iterations.
    """
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT)*y[k]
        else:
            y[k] = _ZDELT
        sim[k + 1] = y

    def func(x):
        # a copy of x goes to f, as scipy's wrapper sends it
        return f(np.copy(x))

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    # scipy sorts the initial simplex twice (once in a ``finally``)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol:
            # vertices with infinite loss give inf - inf = NaN, which fails
            # the test as it should; no warning is printed for it
            with np.errstate(invalid="ignore"):
                if np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                    break

        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = func(xr)
        doshrink = 0

        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = func(xe)

            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        else:  # fsim[0] <= fxr
            if fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:  # fxr >= fsim[-2]
                # Perform contraction
                if fxr < fsim[-1]:
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = func(xc)

                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    # Perform an inside contraction
                    xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxcc = func(xcc)

                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1

                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], iterations < maxiter


def solve_decreasing(f, rtol=1e-13):
    """Root of a strictly decreasing f on (0, inf).

    The bracket [1/2, 2] doubles outward until f changes sign (at most 200
    times, then BracketError); an end where f is 0 is returned as it is.
    Brent runs on log x, so ``rtol`` is a relative tolerance on the root
    even many orders of magnitude away from 1.
    """
    lo, hi = 0.5, 2.0
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(200):
        if np.sign(f_lo) != np.sign(f_hi):
            break
        lo /= 2.0
        hi *= 2.0
        f_lo, f_hi = f(lo), f(hi)
    else:
        raise BracketError(
            f"no sign change in [{lo:g}, {hi:g}] after 200 expansions")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    u = brentq(lambda v: f(np.exp(v)), np.log(lo), np.log(hi),
               xtol=0.5 * rtol, rtol=8.9e-16)
    return float(np.exp(u))


def scan_sign_changes(values, grid):
    """Indices i with a sign change of ``values`` between grid[i], grid[i+1].

    Grid points where the value is exactly zero count as a change with the
    following cell.  Returns a list of (grid[i], grid[i+1]) brackets.
    """
    v = np.asarray(values)
    s = np.sign(v)
    idx = np.nonzero((s[:-1] * s[1:]) <= 0.0)[0]
    return [(grid[i], grid[i + 1]) for i in idx]


def write_rows(fp, table, format_row):
    """Write ``format_row(row)`` for every row of the 2-D array ``table``.

    Rows reach ``format_row`` as lists of Python floats, converted and
    joined into one write a chunk of rows at a time.
    """
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = table[start:start + _CHUNK_ROWS].tolist()
        fp.write("".join(map(format_row, chunk)))
