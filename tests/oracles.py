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
`dense_product` and `unit_l1` are the plain products and scalings that
annihilation and normalization checks compare against.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

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


def dense_product(m: RationalMatrix, v) -> tuple[Fraction, ...]:
    """m . v, one dense row at a time."""
    return tuple(sum((x * y for x, y in zip(m.row(i), v)), Fraction(0)) for i in range(m.rows))


def unit_l1(vec) -> tuple[Fraction, ...]:
    """vec scaled so its absolute values sum to 1 and its first nonzero entry is positive."""
    total = sum(abs(Fraction(x)) for x in vec)
    if next(x for x in vec if x) < 0:
        total = -total
    return tuple(Fraction(x) / total for x in vec)
