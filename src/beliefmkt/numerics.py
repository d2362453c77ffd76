"""Small numerical utilities: root brackets, Brent's method, sign-change
scans and the ``%``-format CSV row writer."""

import numpy as np

from .errors import BracketError

__all__ = ["brentq", "expand_bracket", "solve_decreasing",
           "scan_sign_changes", "write_rows"]

# rows per write in ``write_rows``: a few hundred rows amortize the write
# call while the text held in memory stays far below one path's arrays
_CHUNK_ROWS = 256


def brentq(f, a, b, **kw):
    """``scipy.optimize.brentq``, imported on first use: importing
    scipy.optimize costs more than most CLI runs that never solve a root."""
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(f, a, b, **kw)


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
