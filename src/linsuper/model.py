"""Finite point sets, function families, level classes, and their incidence matrix.

A family h_1,...,h_r of rational-valued functions on a finite point set X
induces, for each function index i, a partition of X into level classes
(maximal sets of points sharing one value of h_i). Classes are keyed by the
pair (i, value): classes of different function indices never merge even when
their values coincide. The zero-one incidence matrix of classes against
points is the central object of the package: a coefficient vector lambda
annihilates every sum g_1(h_1(x)) + ... + g_r(h_r(x)) exactly when it lies
in the kernel of this matrix.

Equality of values is exact rational equality. There is no implicit
tolerance anywhere; the only value-merging facility is the explicit
quantize_family pass, which reports every merge it performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InputValidationError, InternalInvariantError
from .linalg import RationalMatrix


@dataclass(frozen=True)
class Point:
    """A labeled point: stable integer id, optional rational coordinates."""

    id: int
    coords: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class PointSet:
    """Ordered finite point set; the order fixes the matrix column order."""

    points: tuple[Point, ...]
    ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = tuple(p.id for p in self.points)
        seen: set[int] = set()
        for pid in ids:
            if pid in seen:
                raise InputValidationError(f"duplicate point id {pid}")
            seen.add(pid)
        object.__setattr__(self, "ids", ids)
        dims = {len(p.coords) for p in self.points if p.coords is not None}
        if len(dims) > 1:
            raise InputValidationError(f"points carry coordinates of mixed dimensions {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int | None:
        for p in self.points:
            if p.coords is not None:
                return len(p.coords)
        return None

    def require_coordinates(self) -> int:
        """Return the shared coordinate dimension; error if any point lacks coords."""
        missing = [p.id for p in self.points if p.coords is None]
        if missing:
            raise InputValidationError(f"points without coordinates: {missing}")
        dim = self.dimension
        if dim is None:
            raise InputValidationError("point set is empty or carries no coordinates")
        return dim


def abstract_points(ids: list[int] | tuple[int, ...]) -> PointSet:
    return PointSet(tuple(Point(i) for i in ids))


def coordinate_points(coords: list[tuple[Fraction, ...]]) -> PointSet:
    """Points with ids 1, 2, ... carrying the given coordinates."""
    return PointSet(tuple(Point(k + 1, tuple(c)) for k, c in enumerate(coords)))


@dataclass(frozen=True)
class FunctionFamily:
    """Tabulated values h_i(x_j): one table per function, point id -> value."""

    tables: tuple[dict[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.tables:
            raise InputValidationError("a function family needs at least one function")

    @property
    def r(self) -> int:
        return len(self.tables)


def coordinate_functions(ps: PointSet) -> FunctionFamily:
    """The family h_i = i-th coordinate, one function per dimension."""
    dim = ps.require_coordinates()
    tables = tuple({p.id: p.coords[i] for p in ps.points} for i in range(dim))
    return FunctionFamily(tables)


class LevelClass:
    """All points on which one function takes one value; keyed by (index, value).

    `columns`, the members' positions in the point set, are the one storage;
    `members`, their ids, is read off `point_ids` on first use. Equality and
    hashing go by (function index, value, members).
    """

    def __init__(self, function_index: int, value: Fraction, columns: list[int], point_ids: tuple[int, ...]) -> None:
        self.function_index, self.value, self.columns, self._point_ids = function_index, value, columns, point_ids

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(map(self._point_ids.__getitem__, self.columns))

    def __eq__(self, other: object) -> bool:
        key = (self.function_index, self.value, self.members)
        return isinstance(other, LevelClass) and key == (other.function_index, other.value, other.members)

    def __hash__(self) -> int:
        return hash((self.function_index, self.value, self.members))


def build_level_classes(ps: PointSet, ff: FunctionFamily) -> tuple[LevelClass, ...]:
    """All level classes, ordered by (function index, value).

    For each i the classes with index i partition the point ids; the number
    of classes with index i equals the number of distinct values of h_i on X.
    """
    classes: list[LevelClass] = []
    ids = ps.ids
    for i, table in enumerate(ff.tables):
        try:
            values = [table[pid] for pid in ids]
        except KeyError as exc:
            raise InputValidationError(f"function {i} has no value for point id {exc.args[0]}") from None
        # One pass groups the columns by value object (a ridge table holds one
        # Fraction per level), then the objects by exact value: value v is
        # key / den, and ints hash and compare much faster than Fractions.
        by_object: dict[int, list[int]] = {}
        for j, v in enumerate(values):
            columns = by_object.get(id(v))
            if columns is None:
                by_object[id(v)] = [j]
            else:
                columns.append(j)
        ratios = [values[columns[0]].as_integer_ratio() for columns in by_object.values()]
        den = lcm(*(d for _, d in ratios))
        groups: dict[int, list[int]] = {}
        for (n, d), columns in zip(ratios, by_object.values()):
            group = groups.get(key := n * (den // d))
            if group is None:
                groups[key] = columns
            else:
                group.extend(columns)
        if sum(map(len, groups.values())) != len(ids):  # pragma: no cover - a partition by construction
            raise InternalInvariantError(f"the classes of function {i} do not partition the points")
        for key in sorted(groups):
            columns = groups[key]
            classes.append(LevelClass(i, values[columns[0]], columns, ids))
    return tuple(classes)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Zero-one matrix of level classes (rows) against points (columns).

    Row k corresponds to classes[k], column j to point_ids[j], in point-set
    order. The classes' column lists are the only storage: `matrix` (the 0/1
    rows) and `_column_rows` (each point's class rows, the rows of M^T) are
    views read off them on first use. `r`, the number of functions, sizes the
    g-tables even where there are no classes. A vector lambda over the points
    annihilates all superpositions of the family exactly when matrix . lambda = 0.
    """

    classes: tuple[LevelClass, ...]
    point_ids: tuple[int, ...]
    r: int

    @cached_property
    def matrix(self) -> RationalMatrix:
        data = tuple((1, dict.fromkeys(cls.columns, 1)) for cls in self.classes)
        return RationalMatrix._from_storage(len(data), len(self.point_ids), data)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {pid: j for j, pid in enumerate(self.point_ids)}

    @property
    def n_points(self) -> int:
        return len(self.point_ids)

    def column_index(self, point_id: int) -> int:
        try:
            return self._index[point_id]
        except KeyError:
            raise InputValidationError(f"unknown point id {point_id}") from None

    def sorted_support(self, point_ids) -> tuple[int, ...]:
        """Deduplicate and order ids by column position; validate them."""
        cols = sorted({self.column_index(pid) for pid in point_ids})
        return tuple(self.point_ids[c] for c in cols)

    @cached_property
    def _column_rows(self) -> list[dict[int, int]]:
        """Each column's class rows as {row: 1}, its row of M^T; built on first use."""
        rows: list[dict[int, int]] = [{} for _ in self.point_ids]
        for k, cls in enumerate(self.classes):
            for j in cls.columns:
                rows[j][k] = 1
        return rows

    def restricted(self, support: list[int] | tuple[int, ...]) -> RationalMatrix:
        """Columns restricted to the given support ids (in the given order), on the
        rows they meet only: a zero row adds nothing to the kernel."""
        rows: dict[int, dict[int, int]] = {}
        for c, pid in enumerate(support):
            for k in self._column_rows[self.column_index(pid)]:
                rows.setdefault(k, {})[c] = 1
        return RationalMatrix._from_storage(len(rows), len(support), tuple((1, nums) for nums in rows.values()))


def build_incidence(ps: PointSet, ff: FunctionFamily) -> IncidenceMatrix:
    return IncidenceMatrix(build_level_classes(ps, ff), ps.ids, ff.r)


@dataclass(frozen=True)
class QuantizeMerge:
    """Record of one value replaced by its cluster representative."""

    function_index: int
    original: Fraction
    replacement: Fraction


def quantize_family(
    ff: FunctionFamily, eps: Fraction
) -> tuple[FunctionFamily, tuple[QuantizeMerge, ...]]:
    """Cluster values of each function that sit within eps of their neighbor.

    Single-linkage along the sorted distinct values of one function:
    consecutive values with gap <= eps join one cluster, and every member is
    replaced by the cluster minimum. Every replacement is reported; the
    caller is expected to surface the merges prominently. eps = 0 is a no-op.
    """
    if eps < 0:
        raise InputValidationError(f"quantize epsilon must be nonnegative, got {eps}")
    merges: list[QuantizeMerge] = []
    new_tables: list[dict[int, Fraction]] = []
    for i, table in enumerate(ff.tables):
        values = sorted(set(table.values()))
        replacement: dict[Fraction, Fraction] = {}
        cluster_min: Fraction | None = None
        previous: Fraction | None = None
        for v in values:
            if cluster_min is None or previous is None or v - previous > eps:
                cluster_min = v
            previous = v
            replacement[v] = cluster_min
            if cluster_min != v:
                merges.append(QuantizeMerge(i, v, cluster_min))
        new_tables.append({pid: replacement[v] for pid, v in table.items()})
    return FunctionFamily(tuple(new_tables)), tuple(merges)
