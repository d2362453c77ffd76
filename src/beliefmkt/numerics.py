"""Small numerical utilities: root brackets, Brent's method, sign-change
scans and the ``%``-format CSV row writer.

``brentq`` is a port of scipy's C routine that gives scipy's roots bit for
bit, so that root solving (feedback steps, market clearing) does not load
``scipy.optimize``; only ``calibration.fit_parameters`` imports it."""

import math

import numpy as np

from .errors import BracketError

__all__ = ["brentq", "expand_bracket", "solve_decreasing",
           "scan_sign_changes", "write_rows"]

# rows per write in ``write_rows``: a few hundred rows amortize the write
# call while the text held in memory stays far below one path's arrays
_CHUNK_ROWS = 256
# smallest rtol that ``brentq`` accepts: 4 eps, as in scipy.optimize.brentq
_RTOL_MIN = 4 * np.finfo(float).eps


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


def expand_bracket(f, lo, hi, grow=2.0, max_expansions=200):
    """Expand [lo, hi] geometrically (values must stay positive) until f
    changes sign.  Returns (lo, hi, f_lo, f_hi)."""
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(max_expansions):
        if np.sign(f_lo) != np.sign(f_hi):
            return lo, hi, f_lo, f_hi
        lo /= grow
        hi *= grow
        f_lo, f_hi = f(lo), f(hi)
    raise BracketError(
        f"no sign change in [{lo:g}, {hi:g}] after {max_expansions} expansions"
    )


def solve_decreasing(f, x0=1.0, rtol=1e-13):
    """Root of a strictly decreasing f on (0, inf), bracketed from x0.

    Brent runs on log x, so ``rtol`` is honored as a relative tolerance on
    the root even when it is many orders of magnitude away from 1.
    """
    lo, hi, f_lo, f_hi = expand_bracket(f, x0 / 2.0, x0 * 2.0)
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
