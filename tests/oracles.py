"""Brute-force reference implementations, independent of the library code.

The closed-path oracle never searches for a full-support kernel vector.
It uses its own integer row reduction and the rank characterization
instead: a column subset S is a closed path iff its columns are dependent
and dropping any single column leaves the rank unchanged (every column then
lies in the span of the others, so a generic kernel combination touches all
of them). Keeping the criterion and the elimination code separate from the
package is what makes the cross-checks in the test suite meaningful.

`dense_rref`, `dense_kernel` and `dense_solve` are a plain dense Gauss-Jordan
over Fraction, the reference the sparse elimination engine must match;
`dense_columns`, `dense_transpose`, `dense_product` and `unit_l1` are the
plain restrictions, transposes, products and scalings that storage,
annihilation and normalization checks compare against, `recombined` sums
a decomposition's g-tables through the family at every point, and
`hypercube_reference` lists a hypercube path's points and signs one sign
pattern at a time.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from linsuper import FunctionFamily, IncidenceMatrix, PointSet, RationalMatrix, abstract_points


def integer_rows(inc: IncidenceMatrix) -> list[list[int]]:
    return [[int(x) for x in inc.matrix.row(i)] for i in range(inc.matrix.rows)]


def oracle_rank(rows: list[list[int]], cols: list[int]) -> int:
    """Rank of the selected columns, by fraction-free forward elimination."""
    work = [[row[c] for c in cols] for row in rows]
    rank = 0
    width = len(cols)
    for c in range(width):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                a, b = lead[c], work[i][c]
                work[i] = [a * x - b * y for x, y in zip(work[i], lead)]
        rank += 1
    return rank


def oracle_is_closed(rows: list[list[int]], cols: list[int]) -> bool:
    full = oracle_rank(rows, cols)
    if full == len(cols):
        return False
    return all(
        oracle_rank(rows, cols[:k] + cols[k + 1 :]) == full for k in range(len(cols))
    )


def oracle_closed_subsets(inc: IncidenceMatrix) -> list[frozenset[int]]:
    """Every closed-path subset, as sets of point ids, by exhaustive search."""
    rows = integer_rows(inc)
    n = inc.n_points
    closed = []
    for size in range(2, n + 1):
        for cols in combinations(range(n), size):
            if oracle_is_closed(rows, list(cols)):
                closed.append(frozenset(inc.point_ids[c] for c in cols))
    return closed


def oracle_minimal_paths(inc: IncidenceMatrix) -> set[frozenset[int]]:
    closed = oracle_closed_subsets(inc)
    return {s for s in closed if not any(t < s for t in closed)}


def oracle_parts(inc: IncidenceMatrix) -> list[set[int]]:
    """The connected parts of the column matroid, as column sets: the
    classes of 'lie on one minimal closed path', from the subset oracle."""
    parts: list[set[int]] = []
    for path in oracle_minimal_paths(inc):
        part = {inc.column_index(pid) for pid in path}
        for other in [p for p in parts if p & part]:
            part |= other
            parts.remove(other)
        parts.append(part)
    return parts


def oracle_dfs_nodes(inc: IncidenceMatrix, max_support: int) -> int:
    """The node count of the exhaustive circuit search: the increasing column
    sequences within one connected part, of length <= max_support, whose
    proper prefix is independent (only an independent candidate is extended)."""
    rows = integer_rows(inc)
    nodes = 0
    for part in oracle_parts(inc):
        cols = sorted(part)
        for k in range(max_support):
            for prefix in combinations(cols, k):
                if oracle_rank(rows, list(prefix)) == k:
                    nodes += sum(1 for c in cols if not prefix or c > prefix[-1])
    return nodes


def _class_graph(inc: IncidenceMatrix) -> dict[int, tuple[int, int]]:
    """Two functions: each point is an edge between its two level classes (rows)."""
    ends: dict[int, list[int]] = {}
    for k, cls in enumerate(inc.classes):
        for pid in cls.members:
            ends.setdefault(pid, []).append(k)
    if any(len(pair) != 2 for pair in ends.values()):
        raise ValueError("the class graph needs exactly two functions")
    return {pid: (a, b) for pid, (a, b) in ends.items()}


def class_graph_nullity(inc: IncidenceMatrix) -> int:
    """Two functions: the points that close a cycle of the class graph, by union-find.
    The unsigned incidence matrix of a bipartite graph has the graph's cycle space
    as kernel, so this is its nullity."""
    parent = list(range(len(inc.classes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    nullity = 0
    for a, b in _class_graph(inc).values():
        ra, rb = find(a), find(b)
        if ra == rb:
            nullity += 1
        else:
            parent[ra] = rb
    return nullity


def class_graph_cycles(inc: IncidenceMatrix, max_support: int) -> set[frozenset[int]]:
    """Two functions: the simple cycles of the class graph with at most
    max_support edges, as sets of point ids; two points on the same two
    classes are a 2-cycle. These are the minimal closed paths."""
    adjacent: dict[int, list[tuple[int, int]]] = {}
    for pid, (a, b) in _class_graph(inc).items():
        adjacent.setdefault(a, []).append((b, pid))
        adjacent.setdefault(b, []).append((a, pid))
    cycles: set[frozenset[int]] = set()

    def walk(start: int, v: int, seen: set[int], edges: frozenset[int]) -> None:
        # the path from start to v has the edges given; start is the least vertex of the cycle
        for w, pid in adjacent[v]:
            if pid in edges:
                continue
            if w == start:
                cycles.add(edges | {pid})
            elif w > start and w not in seen and len(edges) + 1 < max_support:
                walk(start, w, seen | {w}, edges | {pid})

    for start in adjacent:
        walk(start, start, {start}, frozenset())
    return cycles


def random_instance(
    rng: random.Random, max_points: int = 9, max_functions: int = 3, values: tuple[int, ...] = (0, 1, 2)
) -> tuple[PointSet, FunctionFamily]:
    n = rng.randint(2, max_points)
    r = rng.randint(1, max_functions)
    ps = abstract_points(list(range(1, n + 1)))
    tables = tuple(
        {pid: Fraction(rng.choice(values)) for pid in ps.ids} for _ in range(r)
    )
    return ps, FunctionFamily(tables)


def random_table(rng: random.Random, ids: tuple[int, ...]) -> dict[int, Fraction]:
    return {pid: Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for pid in ids}


def random_superposition(
    rng: random.Random, ps: PointSet, ff: FunctionFamily
) -> dict[int, Fraction]:
    """f = sum of random univariate tables applied to the family values."""
    outer = []
    for table in ff.tables:
        outer.append({v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in set(table.values())})
    return {
        pid: sum(outer[i][table[pid]] for i, table in enumerate(ff.tables))
        for pid in ps.ids
    }


def dense_rref(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form by dense Gauss-Jordan over Fraction.

    The elimination the package used before its sparse integer engine,
    kept as the reference the engine must match exactly.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    for pc in range(cols):
        pr = len(pivots)
        found = next((i for i in range(pr, len(work)) if work[i][pc]), None)
        if found is None:
            continue
        work[pr], work[found] = work[found], work[pr]
        work[pr] = [x / work[pr][pc] for x in work[pr]]
        for i in range(len(work)):
            if i != pr and work[i][pc]:
                c = work[i][pc]
                work[i] = [a - c * b for a, b in zip(work[i], work[pr])]
        pivots.append(pc)
    return work, tuple(pivots)


def dense_kernel(rows: list[list[Fraction]], cols: int) -> list[tuple[Fraction, ...]]:
    """Free-variable kernel vectors of the reference rref, integer, content 1,
    first nonzero entry positive, ordered by free column."""
    reduced, pivots = dense_rref(rows, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        denom = math.lcm(*(x.denominator for x in v))
        ints = [int(x * denom) for x in v]
        g = math.gcd(*ints) * (1 if next(z for z in ints if z) > 0 else -1)
        basis.append(tuple(Fraction(z // g) for z in ints))
    return basis


def dense_solve(rows: list[list[Fraction]], b: list[Fraction], cols: int):
    """(solution with free variables zero or None, conflict row or None, rank)."""
    if not rows:
        return (Fraction(0),) * cols, None, 0
    reduced, pivots = dense_rref([row + [rhs] for row, rhs in zip(rows, b)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None, tuple(reduced[len(pivots) - 1]), len(pivots) - 1
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][cols]
    return tuple(x), None, len(pivots)


def dense_columns(m: RationalMatrix, keep: list[int]) -> RationalMatrix:
    """The matrix of the kept columns, in the given order, built from its dense rows."""
    rows = [m.row(i) for i in range(m.rows)]
    return RationalMatrix(m.rows, len(keep), [row[j] for row in rows for j in keep])


def dense_transpose(m: RationalMatrix) -> RationalMatrix:
    """m^T, built from its dense rows."""
    rows = [m.row(i) for i in range(m.rows)]
    return RationalMatrix(m.cols, m.rows, [row[j] for j in range(m.cols) for row in rows])


def recombined(ff: FunctionFamily, tables, ids) -> dict[int, Fraction]:
    """g_1(h_1(x)) + ... + g_r(h_r(x)) at each point id, each g_i zero off its
    table; the family and the tables must have one entry per function."""
    pairs = list(zip(tables, ff.tables, strict=True))
    return {pid: sum((g.get(h[pid], Fraction(0)) for g, h in pairs), Fraction(0)) for pid in ids}


def dense_product(m: RationalMatrix, v) -> tuple[Fraction, ...]:
    """m . v, one dense row at a time."""
    return tuple(sum((x * y for x, y in zip(m.row(i), v)), Fraction(0)) for i in range(m.rows))


def unit_l1(vec) -> tuple[Fraction, ...]:
    """vec scaled so its absolute values sum to 1 and its first nonzero entry is positive."""
    total = sum(abs(Fraction(x)) for x in vec)
    if next(x for x in vec if x) < 0:
        total = -total
    return tuple(Fraction(x) / total for x in vec)


def hypercube_reference(center, offsets) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """The points center + sum(eps_i * offset_i) and the signs (-1)^|eps|, for eps in
    itertools.product order, each point summed from the center on its own."""
    points, signs = [], []
    for eps in product((0, 1), repeat=len(offsets)):
        points.append(tuple(c + sum((e * off[k] for e, off in zip(eps, offsets)), Fraction(0)) for k, c in enumerate(center)))
        signs.append((-1) ** sum(eps))
    return points, signs
