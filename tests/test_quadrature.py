"""Gauss-Lobatto rules and the panel grids built from them."""

import tracemalloc

import numpy as np
import pytest

from minenergy.errors import BadParameterError
from minenergy.quadrature import (
    LOBATTO_NODES,
    MAX_GRID_FLOATS,
    lobatto_prefix_weights,
    lobatto_rule,
    panel_grid,
)


def per_panel_grid(t0, t1, max_panel_width=1.0, target_points=2048):
    """Reference: the panel grid built one panel at a time.  A later panel
    overwrites the position of the edge node it shares with the panel
    before and adds its weight to it.  Returns (points, weights, panels)."""
    q = LOBATTO_NODES
    panels = max(int(np.ceil(float(t1 - t0) / max_panel_width)),
                 int(np.ceil(max(target_points - 1, q - 1) / (q - 1))))
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
    return pts, wts, panels


def sweep(rng, count=100):
    """Seeded (t0, t1, max_panel_width, target_points) cases, a third of
    them each with one panel, with the panel count set by target_points and
    with the panel count set by max_panel_width."""
    q = LOBATTO_NODES
    for _ in range(count):
        t0 = -float(rng.uniform(0.01, 200.0))
        t1 = float(rng.choice([0.0, rng.uniform(t0 / 2, 5.0)]))
        length = t1 - t0
        yield "one", (t0, t1, length * rng.uniform(1.0, 3.0), int(rng.integers(2, q + 1)))
        yield "target", (t0, t1, length * rng.uniform(1.0, 3.0), int(rng.integers(q + 1, 4000)))
        yield "width", (t0, t1, length / rng.uniform(2.0, 500.0), 2)


def test_panel_grid_matches_per_panel_construction():
    kinds = {"one": set(), "target": set(), "width": set()}
    for kind, case in sweep(np.random.default_rng(20231019)):
        pts, wts, panels = per_panel_grid(*case)
        grid = panel_grid(*case)
        kinds[kind].add(panels)
        assert grid.nodes_per_panel == LOBATTO_NODES
        assert grid.points.tobytes() == pts.tobytes(), case
        assert grid.weights.tobytes() == wts.tobytes(), case
    assert kinds["one"] == {1}
    assert min(kinds["target"]) > 1 and min(kinds["width"]) > 1


def test_panel_grid_refuses_empty_interval():
    with pytest.raises(ValueError):
        panel_grid(0.0, 0.0)


@pytest.mark.parametrize("t0", [-1e18, -1e301, -np.inf])
def test_panel_grid_refuses_overflowing_panel_count(t0):
    # a numpy array cannot hold the points of 1e18 unit panels; the grid is
    # refused before any array is made
    tracemalloc.start()
    try:
        with pytest.raises(BadParameterError, match="overflows the panel count"):
            panel_grid(t0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


@pytest.mark.parametrize("length, columns", [(2.0 ** 24, 1), (2.0 ** 20, 128)],
                         ids=["points", "columns"])
def test_panel_grid_refuses_oversized_signal(length, columns):
    # unit panels of LOBATTO_NODES - 1 new points each: 1.5e8 points, or
    # 9.4e6 points of 128 floats, both past the cap; nothing is allocated
    points = int(length) * (LOBATTO_NODES - 1) + 1
    assert points * columns > MAX_GRID_FLOATS
    tracemalloc.start()
    try:
        with pytest.raises(BadParameterError,
                           match=f"^horizon {length} needs {points} grid points"):
            panel_grid(-length, 0.0, columns=columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_lobatto_rules_built_once_and_read_only():
    x, w = lobatto_rule(10)
    prefix = lobatto_prefix_weights(10)
    again = lobatto_rule(10)
    assert again[0] is x and again[1] is w
    assert lobatto_prefix_weights(10) is prefix
    for a in (x, w, prefix):
        with pytest.raises(ValueError):
            a[0] = 0.0
