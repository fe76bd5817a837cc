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

import numpy as np
from numpy.polynomial import legendre


@lru_cache(maxsize=None)
def _legendre_rule_cached(q):
    x, w = legendre.leggauss(q)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _lobatto_rule_cached(q):
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


def lobatto_rule(q):
    """Nodes and weights of the q-point Gauss-Lobatto rule on [-1, 1].

    Exact for polynomials of degree 2q - 3.  q=2 is the trapezoid rule,
    q=3 is Simpson's rule.
    """
    x, w = _lobatto_rule_cached(int(q))
    return x.copy(), w.copy()


@lru_cache(maxsize=None)
def _prefix_weights_cached(q):
    x, _ = _lobatto_rule_cached(q)
    vander = legendre.legvander(x, q - 1)
    coeffs = np.linalg.inv(vander)          # column k: Legendre coeffs of l_k
    prim = legendre.legint(coeffs, lbnd=-1.0)
    out = legendre.legval(x, prim).T
    out.setflags(write=False)
    return out


def lobatto_prefix_weights(q):
    """Prefix-integration matrix W of the q-point Lobatto rule.

    W[j, k] = integral over [-1, x_j] of the k-th Lagrange cardinal
    polynomial on the Lobatto nodes, so that for samples f_k of a smooth f,
    sum_k W[j, k] f_k approximates the integral of f from -1 to x_j.
    """
    return _prefix_weights_cached(int(q)).copy()


def legendre_panels(t0, t1, max_width, nodes=32):
    """Composite Gauss-Legendre nodes and weights on [t0, t1].

    Panels are uniform with width at most ``max_width``.  Returns flat
    arrays (points, weights) whose weight sum equals t1 - t0.
    """
    length = float(t1 - t0)
    if length <= 0:
        raise ValueError("empty integration interval")
    panels = max(1, int(np.ceil(length / max_width)))
    x, w = _legendre_rule_cached(int(nodes))
    edges = np.linspace(t0, t1, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


class PanelGrid:
    """Composite Gauss-Lobatto grid on [t0, t1] with uniform panels.

    Attributes
    ----------
    points : (K+1,) strictly increasing, points[0] = t0, points[-1] = t1
    weights : (K+1,) nonnegative, summing exactly to t1 - t0
    panels, nodes_per_panel : panel structure (edge nodes are shared)
    """

    def __init__(self, t0, t1, panels, nodes_per_panel=10):
        if t1 <= t0:
            raise ValueError("empty grid interval")
        q = int(nodes_per_panel)
        panels = int(panels)
        x, w = lobatto_rule(q)
        edges = np.linspace(t0, t1, panels + 1)
        width = (t1 - t0) / panels
        pts = np.empty(panels * (q - 1) + 1)
        wts = np.zeros_like(pts)
        for p in range(panels):
            lo = p * (q - 1)
            mid = 0.5 * (edges[p] + edges[p + 1])
            pts[lo:lo + q] = mid + 0.5 * width * x
            wts[lo:lo + q] += 0.5 * width * w
        pts[0], pts[-1] = t0, t1
        wts *= (t1 - t0) / wts.sum()
        self.points = pts
        self.weights = wts
        self.panels = panels
        self.nodes_per_panel = q
        self.panel_width = width


def panel_grid(t0, t1, max_panel_width=1.0, target_points=2048, nodes_per_panel=10):
    """Build the default sampling grid for signals on [t0, t1].

    The panel count is chosen so the panel width respects ``max_panel_width``
    and the total node count is close to ``target_points``.
    """
    length = float(t1 - t0)
    q = int(nodes_per_panel)
    panels = max(int(np.ceil(length / max_panel_width)),
                 int(np.ceil(max(target_points - 1, q - 1) / (q - 1))))
    return PanelGrid(t0, t1, panels, q)
