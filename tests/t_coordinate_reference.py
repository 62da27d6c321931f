"""An independent finite-difference check of the original t-coordinate
system, the reference that the s-coordinate battery
`residuals.soliton_residuals` is tested against.

`t_coordinate_residuals` takes sampled functions f(t), g_i(t) and u(t) on a
uniform grid from any source, differentiates them with 4th-order centred
stencils, and evaluates the t-equation, the fibre equation and one base
equation per factor as printed.  It shares no code with the package's
s-coordinate machinery.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class TCoordinateResiduals:
    """Residuals of the t-coordinate system on the interior of a uniform
    grid (two points trimmed at each end by the 4th-order stencils)."""

    r_t: np.ndarray
    r_fibre: np.ndarray
    r_base: np.ndarray


def _fd1(y: np.ndarray, h: float) -> np.ndarray:
    return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * h)


def _fd2(y: np.ndarray, h: float) -> np.ndarray:
    return (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2] + 16.0 * y[1:-3] - y[:-4]) \
        / (12.0 * h * h)


def t_coordinate_residuals(h: float, f: Sequence[float],
                           g: Sequence[Sequence[float]], u: Sequence[float],
                           factors, epsilon: float) -> TCoordinateResiduals:
    """Check arbitrary sampled functions f(t), g_i(t), u(t) against the
    t-coordinate system, using 4th-order centered differences.

    ``factors`` supplies (n_i, p_i, q_i) per base factor, matching the rows
    of ``g``; this is an independent cross-check of the s-coordinate
    machinery and accepts functions from any source.
    """
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    f = np.asarray(f, dtype=float)
    u = np.asarray(u, dtype=float)
    g = [np.asarray(gi, dtype=float) for gi in g]
    npts = len(f)
    if npts < 5:
        raise ValueError("need at least 5 grid points for the interior stencils")
    if len(u) != npts or any(len(gi) != npts for gi in g):
        raise ValueError("all sampled functions must share the grid")
    if len(g) != len(factors):
        raise ValueError("one sampled g_i per factor required")

    eps = float(epsilon)
    mid = slice(2, npts - 2)
    fm = f[mid]
    df, d2f = _fd1(f, h), _fd2(f, h)
    du, d2u = _fd1(u, h), _fd2(u, h)
    dg = [_fd1(gi, h) for gi in g]
    d2g = [_fd2(gi, h) for gi in g]
    gm = [gi[mid] for gi in g]

    ns = [int(fac.n) for fac in factors]
    ps = [float(fac.p) for fac in factors]
    qs = [float(fac.q) for fac in factors]

    ddf_over_f = d2f / fm
    sum_ddg = sum(2 * n * d2gi / gmi for n, d2gi, gmi in zip(ns, d2g, gm))
    sum_cross_f = sum(2 * n * df * dgi / (fm * gmi)
                      for n, dgi, gmi in zip(ns, dg, gm))
    sum_bundle = sum(0.5 * n * q * q * fm ** 2 / gmi ** 4
                     for n, q, gmi in zip(ns, qs, gm))

    r_t = ddf_over_f + sum_ddg - d2u - 0.5 * eps
    r_fibre = ddf_over_f + sum_cross_f - du * df / fm - sum_bundle - 0.5 * eps

    r_base = np.empty((len(g), npts - 4))
    for i in range(len(g)):
        ratio = dg[i] / gm[i]
        cross = sum(2 * n * ratio * dgj / gmj
                    for n, dgj, gmj in zip(ns, dg, gm))
        r_base[i] = (d2g[i] / gm[i] - ratio ** 2 + df * ratio / fm + cross
                     - du * ratio - ps[i] / gm[i] ** 2
                     + 0.5 * qs[i] ** 2 * fm ** 2 / gm[i] ** 4 - 0.5 * eps)

    return TCoordinateResiduals(r_t=r_t, r_fibre=r_fibre, r_base=r_base)
