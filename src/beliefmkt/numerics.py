"""Small numerical utilities: root brackets, Brent's method, the
Nelder-Mead simplex, sign-change scans, the ``%.17g`` CSV table writer and
its finite-output rule, and the fork split of independent work.

``brentq`` and ``nelder_mead`` are ports of scipy's routines that give
scipy's roots and minimizers bit for bit, so root solving (feedback steps,
market clearing) and the ``fit`` search need numpy only.  ``write_rows``
prints a float table as ``'%.17g' % value`` would, byte for byte, a chunk
of values per numpy pass; a value whose digits it cannot certify is
printed by ``%`` itself, NaN and the infinities among them.
``check_finite`` is the finite-output rule of the result tables: the
writers of a path CSV and of a feedback series run it before writing a
byte, so neither holds ``inf``, ``nan`` or a level that underflowed to 0.
``fork_map`` is the package's one split of independent work across
processes: it maps a function over a sequence cut into contiguous ranges,
one forked process per usable CPU, and returns the results in item order,
as an in-order loop would give them."""

import functools
import math
import os
import pickle
import signal
import threading
from collections import abc

import numpy as np

from .errors import BracketError, SaturationError

__all__ = ["brentq", "nelder_mead", "solve_decreasing", "scan_sign_changes",
           "check_finite", "write_rows", "fork_map"]

# values per numpy pass in ``write_rows``: enough to amortize each pass's
# call overhead, few enough that a chunk's temporaries stay well under a
# megabyte
_CHUNK_VALUES = 4096
# the result tables' columns of levels: dividend, state-price density and
# prices, > 0 by definition, so a 0 there is a level that underflowed
_LEVELS = frozenset(("delta", "zeta", "S", "S_star"))
# |x| range of the vectorized %.17g digits: 10^(16 - k) and every partial
# product of Dekker's algorithm stay normal doubles
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_K_MIN, _K_MAX = -252, 252  # decimal exponents k of the scale table
_E16, _E17 = 10 ** 16, 10 ** 17
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# the scaled value is exact to within 2**-46, so a fraction farther than
# this from 1/2 rounds the same way as the exact value
_TIE = 2.0 ** -40
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
    following cell, and a zero at the last point with the last cell.
    Returns a list of (grid[i], grid[i+1]) brackets.
    """
    s = np.sign(values)
    idx = np.nonzero(s[:-1] * s[1:] <= 0.0)[0].tolist()
    # such a product is 0 in the cell before a zero too: that cell counts
    # only where its own start is a zero, or where it is the last cell
    last = len(s) - 2
    return [(grid[i], grid[i + 1]) for i in idx
            if s[i + 1] != 0.0 or s[i] == 0.0 or i == last]


def _slots(strings):
    """ASCII strings as zero-padded 48-byte slots of six '<i8' words."""
    return np.array(strings, dtype="S48").view("<i8").reshape(-1, 6)


@functools.cache
def _scale_table():
    """10^(16 - k) for k in [_K_MIN, _K_MAX] as double-doubles hi + lo,
    with hi's Veltkamp halves, from exact integers: int / int and float(int)
    are correctly rounded."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 16:
            power = 10 ** (16 - k)
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            den = 10 ** (k - 16)
            hi.append(1 / den)
            p, q = hi[-1].as_integer_ratio()
            lo.append((q - p * den) / (q * den))
    hi = np.array(hi)
    c = _SPLIT * hi
    h1 = c - (c - hi)
    return hi, h1, hi - h1, np.array(lo)


@functools.cache
def _layout_table():
    """The slot layout of ``_format_chunk``: the words of each 4-digit
    group, its trailing zeros, the exponent words, the masks of each
    class, the class base of each k, the lead word and the zeros' slots."""
    # group[a, b, c, d] = "a.b.c.d." and its trailing zeros, by broadcasting
    group = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    digit = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    z = digit == ord("0")
    for i, shape in enumerate(((10, 1, 1, 1), (10, 1, 1), (10, 1), (10,))):
        group[..., 2 * i] = digit.reshape(shape)
    trailing = z * (1 + z[:, None] * (1 + z[:, None, None]
                                      * (1 + z[:, None, None, None])))
    # byte 47 of each exponent word is all ones: the mask supplies the
    # separator there
    exponent = _slots(["e+-%03d" % i for i in range(_K_MAX + 1)])[:, 0] \
        | -1 << 56

    # keep[layout, digits - 1, negative, byte]: layout k + 4 is fixed
    # notation (-4 <= k <= 16); 21 + 2 (k < 0) + (|k| >= 100) exponent
    b = np.arange(48)
    lay = np.arange(25)[:, None, None, None]
    nd = np.arange(1, 18)[:, None, None]
    k = lay - 4
    fixed, sci = lay < 21, lay >= 21
    below_one = fixed & (k < 0)
    j = (b - 6) // 2  # the digit at byte b, or the one before its point
    in_digits, is_point = (6 <= b) & (b < 40), b % 2 == 1
    # fixed notation prints every integer digit, zero or not
    shown = np.where(fixed & (k >= 0), np.maximum(nd, k + 1), nd)
    point = np.where(fixed, k, 0)  # the digit the point follows
    keep = ((b == 0) & (np.arange(2)[:, None] == 1)
            | in_digits & ~is_point & (j < shown)
            | in_digits & is_point & ~below_one & (j == point)
            & (nd > point + 1)
            | below_one & (1 <= b) & (b <= 1 - k)
            | sci & ((b == 40) | (b == 41 + (lay >= 23)) | (b == 43)
                     & (lay % 2 == 0) | (b == 44) | (b == 45)))
    masks = np.repeat(keep[..., None, :] * np.uint8(255), 2, axis=-2)
    masks[..., 47] = (ord(","), ord("\n"))
    ks = np.arange(_K_MIN, _K_MAX + 1)
    layout = np.where((-4 <= ks) & (ks <= 16), ks + 4,
                      21 + 2 * (ks < 0) + (abs(ks) >= 100))
    zeros = _slots([s + end for s in ("0", "-0") for end in ",\n"])
    return (group.view("<i8").reshape(-1), trailing.reshape(-1), exponent,
            masks.view("<i8").reshape(-1, 6), layout * 68 + 64,
            np.frombuffer(b"-0.000\0.", "<i8")[0], zeros)


def _scaled(a, k):
    """floor(a * 10^(16 - k)) as int64 and the fraction left, within 2**-46:
    Dekker's exact product of a and hi plus a * lo (Dekker 1971)."""
    hi, h1, h2, lo = (t.take(k - _K_MIN) for t in _scale_table())
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi
    t = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo
    f = np.floor(t)
    return p.astype(np.int64) + f.astype(np.int64), t - f


def _decimal(x):
    """(ok, n, k): |x| rounded half-even to 17 digits is n * 10^(k - 16),
    1e16 <= n < 1e17, wherever ``ok``.

    ``ok`` holds for finite nonzero |x| in [_FAST_MIN, _FAST_MAX] whose
    scaled value y = |x| 10^(16 - k) certainly lies in [1e16 - 0.05, 1e17)
    and is not within _TIE of a tie, so that the rounding is certain (the
    fall-back pattern of Loitsch 2010).  Below 1e16 the exponent may be
    k - 1, but then 10 y rounds up to 1e17, which prints the same."""
    a = np.abs(x)
    ok = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k)
    # log10 may round across a power of ten: move k by one there
    above = (n - _E16) + frac > -0.04
    step = (n >= _E17).astype(np.int64) - ~above
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        n[moved], frac[moved] = _scaled(a[moved], k[moved])
        above[moved] = (n[moved] - _E16) + frac[moved] > -0.04
    ok &= above & (n < _E17) & (np.abs(frac - 0.5) > _TIE)
    n = np.where(ok, n + (frac > 0.5), _E16)
    carry = n == _E17  # 99999999999999999.5 and above
    n[carry] = _E16
    return ok, n, k + carry


def _format_chunk(x, last):
    """The bytes of ``'%.17g' % v`` for each v of the 1-d array x, each
    followed by ',', or by a newline where ``last`` is 1.

    Each value fills a 48-byte slot of six '<i8' words that holds every
    character it could print; its class's mask zeroes the rest, and the
    zeros are dropped:

    * byte 0: '-';
    * bytes 1-5: '0.000', the lead of fixed notation below 1;
    * bytes 6-39: d0 . d1 . ... d16 ., digit j at 6 + 2j and a point
      after it;
    * bytes 40-45: 'e', '+', '-' and three exponent digits;
    * byte 47: the separator.

    The class is (layout, significant digits, sign, separator).  The
    zeros, common in result tables, take fixed slots, and every other
    value that ``_decimal`` does not certify, NaN and the infinities among
    them, is formatted by ``%``.
    """
    ok, n, k = _decimal(x)
    group, trailing, exponent, masks, base, lead, zero = _layout_table()
    d0 = n // _E16
    rest = n - d0 * _E16
    hi, lo = rest // 10 ** 8, rest % 10 ** 8
    groups = (hi // 10 ** 4, hi % 10 ** 4, lo // 10 ** 4, lo % 10 ** 4)
    zeros = trailing.take(groups[0])
    for g in groups[1:]:
        t = trailing.take(g)
        zeros = t + (t == 4) * zeros
    words = masks.take(base.take(k - _K_MIN) - 4 * zeros + 2 * (x < 0) + last,
                       axis=0)
    words[:, 0] &= lead + ((d0 + ord("0")) << 48)
    for col, g in enumerate(groups, 1):
        words[:, col] &= group.take(g)
    words[:, 5] &= exponent.take(np.abs(k))
    other = np.flatnonzero(~ok)
    if other.size:
        v, end = x[other], last[other]
        slots = zero.take(2 * np.signbit(v) + end, axis=0)
        plain = np.flatnonzero(v != 0)
        if plain.size:
            slots[plain] = _slots([
                "%.17g%s" % (f, ",\n"[e])
                for f, e in zip(v[plain].tolist(), end[plain].tolist())])
        words[other] = slots
    return words.tobytes().translate(None, b"\0")


def check_finite(names, table):
    """Raise SaturationError naming the column (of ``names``) and the t
    (column 0) of the first value of the 2-d float array ``table``, row by
    row, that is not finite, or that is 0 in a column of levels
    (``_LEVELS``), which are > 0 unless they underflowed."""
    not_level = [name not in _LEVELS for name in names]
    ok = np.isfinite(table) & ((table != 0) | not_level)
    if not ok.all():
        i, j = divmod(int(np.argmin(ok)), table.shape[1])
        what = "is 0" if table[i, j] == 0 else "is not finite"
        raise SaturationError(f"column {names[j]} {what} at "
                              f"t={table[i, 0].item()!r}")


def write_rows(fp, table):
    """Write the 2-d float array ``table`` as CSV rows, each value as
    ``'%.17g' % value`` prints it, byte for byte."""
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, _CHUNK_VALUES // cols)
    last = np.zeros((step, cols), np.int64)
    last[:, -1] = 1
    last = last.reshape(-1)
    for start in range(0, rows, step):
        chunk = table[start:start + step].reshape(-1)
        fp.write(_format_chunk(chunk, last[:len(chunk)]).decode("ascii"))


def fork_map(fn, items):
    """fn(item) for each of ``items``, in item order, as an iterable.

    A sequence of more than one item is split when the process runs one
    Python thread and the platform has fork: k = min(len(items), usable CPUs)
    contiguous ranges of indices, of which this process maps the first and
    a forked child each of the others, sending back its pickled results.
    An error raised in any range is raised here with its type and message
    (an exception that does not pickle comes back as ``RuntimeError("<type>:
    <message>")``); where several ranges fail, the lowest one's error wins,
    as in an in-order loop, and the other children are killed.  Every child
    is reaped before this returns or raises.  Any other input, a single
    item, a single usable CPU or a second running thread gives the lazy
    ``map(fn, items)`` in this process.
    """
    if not (isinstance(items, abc.Sequence) and threading.active_count() == 1
            and hasattr(os, "fork")):
        return map(fn, items)
    k = min(len(items), _usable_cpus())
    if k < 2:   # also no item or one item
        return map(fn, items)
    cuts = [len(items) * i // k for i in range(k + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []   # (pid, read end of its pipe)
    try:
        for indices in ranges[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child_map(write_fd, fn, items, indices)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [fn(items[i]) for i in ranges[0]]
        for _, fp in children:
            try:
                ok, value = pickle.load(fp)
            except EOFError:  # killed, say by the OOM killer
                raise ChildProcessError("a forked child ended without a "
                                        "result") from None
            if not ok:
                raise value
            results += value
        return results
    except BaseException:
        # the lowest failing range has raised: the others' work is moot
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fp in children:
            fp.close()
            os.waitpid(pid, 0)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _child_map(write_fd, fn, items, indices):
    """In a forked child: write the pickled (True, [fn(items[i]) for i in
    indices]) or (False, exception) to ``write_fd``; never returns."""
    try:
        try:
            result = (True, [fn(items[i]) for i in indices])
        except BaseException as exc:
            try:  # the parent must be able to load what it is sent
                pickle.loads(pickle.dumps(exc))
                result = (False, exc)
            except Exception:
                result = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        with os.fdopen(write_fd, "wb") as fp:
            pickle.dump(result, fp)
    finally:
        os._exit(0)
