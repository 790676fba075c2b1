"""Brent's method for the PCU's one-dimensional budget solves.

A pure-Python copy of the loop in scipy's ``brentq`` (``Zeros/brentq.c``,
after Brent 1973, ch. 4). It performs the same float operations in the
same order, so it returns the same bits as ``scipy.optimize.brentq`` for
the same ``f``, bracket and tolerances; ``tests/test_roots.py`` checks
that with ``==``. Keeping the copy here spares every process the import
of ``scipy.optimize`` for a solve that runs a few hundred times per
paper-suite pass.
"""

from __future__ import annotations

import math
import sys
from typing import Callable


def _checked(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x:.6g} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = 2e-12, rtol: float = 4 * sys.float_info.epsilon,
           maxiter: int = 100) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` (defaults as in scipy).

    ``f(a)`` and ``f(b)`` must have opposite signs (``ValueError``
    otherwise, and when ``f`` returns NaN). The result is within
    ``xtol + rtol*|x|`` of a sign change; ``RuntimeError`` if that takes
    more than ``maxiter`` iterations.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C yields inf or NaN here, which the test below rejects.
                stry = math.nan
            bound = abs(spre)
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (bound if bound < limit else limit):
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f, xcur)

    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur:f}")
