"""Panel quadrature rules used by the Gramian and trajectory integrators.

Two node families are used:

* Gauss-Legendre panels (open rule) for pure integrals such as the
  finite-horizon Gramian.
* Gauss-Lobatto panels (closed rule, endpoints included) for time grids
  that carry sampled signals: the grid contains the interval endpoints,
  the weights of shared panel edges merge, and the weight sum equals the
  interval length exactly.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre

from .errors import BadParameterError

#: nodes of each Gauss-Lobatto panel, its two edge nodes included
LOBATTO_NODES = 10

#: most floats an array sampled on a signal grid may hold (1 GiB), counted
#: as grid points times the floats sampled at each point
MAX_GRID_FLOATS = 2 ** 27


@lru_cache(maxsize=None)
def _legendre_rule_cached(q):
    x, w = legendre.leggauss(q)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def lobatto_rule(q):
    """Read-only nodes and weights of the q-point Lobatto rule on [-1, 1].

    Exact for polynomials of degree 2q - 3.  q=2 is the trapezoid rule,
    q=3 is Simpson's rule.
    """
    if q < 2:
        raise ValueError("Lobatto rule needs at least 2 nodes")
    c = np.zeros(q)
    c[-1] = 1.0
    interior = legendre.legroots(legendre.legder(c))
    x = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    w = 2.0 / (q * (q - 1) * legendre.legval(x, c) ** 2)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def lobatto_prefix_weights(q):
    """Read-only prefix-integration matrix W of the q-point Lobatto rule.

    W[j, k] = integral over [-1, x_j] of the k-th Lagrange cardinal
    polynomial on the Lobatto nodes, so that for samples f_k of a smooth f,
    sum_k W[j, k] f_k approximates the integral of f from -1 to x_j.
    """
    x, _ = lobatto_rule(q)
    vander = legendre.legvander(x, q - 1)
    coeffs = np.linalg.inv(vander)          # column k: Legendre coeffs of l_k
    prim = legendre.legint(coeffs, lbnd=-1.0)
    out = legendre.legval(x, prim).T
    out.setflags(write=False)
    return out


def legendre_panels(t0, t1, max_width):
    """Composite 32-point Gauss-Legendre nodes and weights on [t0, t1].

    Panels are uniform with width at most ``max_width``.  Returns flat
    arrays (points, weights) whose weight sum equals t1 - t0.
    """
    length = float(t1 - t0)
    if length <= 0:
        raise ValueError("empty integration interval")
    panels = max(1, int(np.ceil(length / max_width)))
    x, w = _legendre_rule_cached(32)
    edges = np.linspace(t0, t1, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


class PanelGrid(NamedTuple):
    """Gauss-Lobatto grid on [t0, t1] of uniform LOBATTO_NODES-point panels.

    Attributes
    ----------
    points : (K+1,) strictly increasing, points[0] = t0, points[-1] = t1
    weights : (K+1,) nonnegative, summing exactly to t1 - t0
    nodes_per_panel : nodes of each panel (edge nodes are shared)
    """

    points: np.ndarray
    weights: np.ndarray
    nodes_per_panel: int


def panel_grid(t0, t1, max_panel_width=1.0, target_points=2048, columns=1):
    """Build the default sampling grid for signals on [t0, t1].

    The panel count is chosen so the panel width respects ``max_panel_width``
    and the total node count is close to ``target_points``.  Raises
    BadParameterError, before anything is allocated, when the grid would
    hold more floats than a numpy array can, or when a signal of
    ``columns`` floats per point sampled on it would hold more than
    MAX_GRID_FLOATS.
    """
    if t1 <= t0:
        raise ValueError("empty grid interval")
    length = float(t1 - t0)
    q = LOBATTO_NODES
    ratio = length / max_panel_width
    if not ratio * (q - 1) < np.iinfo(np.intp).max / np.dtype(float).itemsize:
        raise BadParameterError(
            f"horizon {length} over panels of width {max_panel_width:.3g} "
            "overflows the panel count")
    panels = max(int(np.ceil(ratio)),
                 int(np.ceil(max(target_points - 1, q - 1) / (q - 1))))
    points = panels * (q - 1) + 1
    if points * columns > MAX_GRID_FLOATS:
        raise BadParameterError(f"horizon {length} needs {points} grid points of "
                                f"{columns} floats, over the cap of {MAX_GRID_FLOATS}")
    x, w = lobatto_rule(q)
    edges = np.linspace(t0, t1, panels + 1)
    width = (t1 - t0) / panels
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * width * x
    pts = np.append(nodes[:, :-1], t1)
    pts[0] = t0
    half = 0.5 * width * w
    wts = np.append(np.tile(half[:-1], panels), half[-1])
    # an edge node shared by two panels carries both of their weights
    wts[q - 1:-1:q - 1] = half[-1] + half[0]
    wts *= (t1 - t0) / wts.sum()
    return PanelGrid(pts, wts, q)
