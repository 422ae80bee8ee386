"""Canonical example instances used by the test suite and the shipped fixtures.

The five-point set in {0,1}^3 is the smallest interesting minimal closed
path under the three coordinate functions; adding the point (0,1,1) keeps it
a closed path but destroys minimality. The 2x2 grid is the classic
four-point broken-line path in the plane. The broken-line fixture is an
axis-parallel staircase whose x-steps shrink like 1/k^2; its vertex
truncations carry no closed paths, so every function on them splits as
g1(x) + g2(y) even though no continuous split need exist in the limit.
"""

from __future__ import annotations

from fractions import Fraction

from linsuper.model import FunctionFamily, PointSet, coordinate_functions, coordinate_points


def _pts(raw: list[tuple[int, ...]]) -> PointSet:
    return coordinate_points([tuple(Fraction(c) for c in p) for p in raw])


def five_point_path() -> tuple[PointSet, FunctionFamily]:
    """Five points of the unit cube forming a minimal closed path."""
    ps = _pts([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    return ps, coordinate_functions(ps)


def six_point_path() -> tuple[PointSet, FunctionFamily]:
    """The five-point path plus (0,1,1): still a closed path, not minimal."""
    ps = _pts([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1)])
    return ps, coordinate_functions(ps)


def unit_grid() -> tuple[PointSet, FunctionFamily]:
    """The 2x2 grid: one minimal closed path through all four points."""
    ps = _pts([(0, 0), (0, 1), (1, 0), (1, 1)])
    return ps, coordinate_functions(ps)


def simplex_corners(d: int = 3) -> tuple[PointSet, FunctionFamily]:
    """Origin plus the d unit vectors under coordinate functions: path-free."""
    coords = [tuple(Fraction(0) for _ in range(d))]
    for k in range(d):
        coords.append(tuple(Fraction(1 if i == k else 0) for i in range(d)))
    ps = coordinate_points(coords)
    return ps, coordinate_functions(ps)


def broken_line_vertices(count: int) -> list[tuple[Fraction, Fraction]]:
    """First `count` vertices of the shrinking staircase.

    Vertex 2m is (s_m, s_m) and vertex 2m+1 is (s_{m+1}, s_m), where
    s_m = 1 + 1/4 + ... + 1/m^2.
    """
    sums = [Fraction(0)]
    while 2 * (len(sums) - 1) < count + 2:
        k = len(sums)
        sums.append(sums[-1] + Fraction(1, k * k))
    vertices = []
    for idx in range(count):
        m, odd = divmod(idx, 2)
        if odd:
            vertices.append((sums[m + 1], sums[m]))
        else:
            vertices.append((sums[m], sums[m]))
    return vertices


def broken_line(count: int) -> tuple[PointSet, FunctionFamily]:
    ps = coordinate_points([tuple(v) for v in broken_line_vertices(count)])
    return ps, coordinate_functions(ps)
