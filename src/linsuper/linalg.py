"""Exact linear algebra over the rationals.

Every result is exact; there is no floating point anywhere in this module.
A matrix keeps each row once as sparse integers over a positive row
denominator (a 0/1 incidence matrix has r ones per column), and the one
elimination, `rref`, works on those integer rows fraction-free in the
manner of Bareiss: a forward pass takes the pivot columns in order and
clears each below its pivot row, then one back-substitution from the last
pivot up clears the rest above. The reduced row echelon form is unique, so
neither that order nor the choice of pivot rows can change what `rref`
returns. Kernel, rank and solve are read off its reduced integer rows. A
kernel basis is read lazily: its vectors are formed when asked for, and the
library reads them as sparse integer pairs. A Fraction is formed only where
a value is handed out: the entries of a matrix, dense kernel vectors and
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Row = tuple[int, dict[int, int]]  # (denominator > 0, {column: nonzero numerator})

# Shared small values: `x is not _ZERO` skips the slow Fraction.__bool__ on the
# zeros that fill dense vectors, and Fraction(k) costs about 1 us to build.
_INTS = {k: Fraction(k) for k in range(-8, 9)}
_ZERO = _INTS[0]
_ONE = _INTS[1]


def _fraction(n: int, d: int = 1) -> Fraction:
    if d != 1:
        return Fraction(n, d)
    return _INTS[n] if -8 <= n <= 8 else Fraction(n)


def _dense(size: int, entries: Iterable[tuple[int, Fraction]]) -> Vector:
    """The vector of the given size with these (index, value) entries, zero elsewhere."""
    out = [_ZERO] * size
    for j, x in entries:
        out[j] = x
    return tuple(out)


def _row(values: Iterable[Fraction | int]) -> Row:
    """Integer form of a row of rationals; lowest-terms inputs make it normal."""
    nonzero = [(j, x) for j, x in enumerate(values) if x is not _ZERO and x]
    den = lcm(*(x.denominator for _, x in nonzero))
    return den, {j: x.numerator * (den // x.denominator) for j, x in nonzero}


class RationalMatrix:
    """Immutable matrix of rationals, stored as one integer row per row.

    Row i is a pair (d, {j: n_j}) of a positive denominator and the nonzero
    numerators, with gcd(d, n_j, ...) = 1, so the entry in column j is
    n_j / d and every matrix has exactly one storage. `entries` and `row`
    read Fractions off that storage; equality and hashing compare it.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction | int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows, self.cols = rows, cols
        self._data = tuple(_row(entries[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def _from_storage(cls, rows: int, cols: int, data: tuple[Row, ...]) -> "RationalMatrix":
        """A matrix over normal integer rows, taken as they are."""
        m = object.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, data
        return m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple((d, frozenset(n.items())) for d, n in self._data)))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}, {self.cols}, {self.entries!r})"

    @property
    def entries(self) -> Vector:
        """All entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def row(self, i: int) -> Vector:
        den, nums = self._data[i]
        return _dense(self.cols, ((j, _fraction(n, den)) for j, n in nums.items()))


def _reduce(row: dict[int, int], prow: dict[int, int], pc: int) -> None:
    """Clear column pc of row in place: p*row - c*prow, divided by its content."""
    p, c = prow[pc], row[pc]
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in prow.items():
        x = row.get(j, 0) - c * v
        if x:
            row[j] = x
        else:
            del row[j]
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the ordered pivot columns.

    A forward pass over copies of the integer rows takes the pivot columns
    in order. Pending rows wait in buckets by leading column, so the rows
    holding the next pivot column are at hand; one of them becomes the pivot
    row and the others are cleared below it. One back-substitution then runs
    from the last pivot up: each row clears each later pivot column once,
    against a row that is already final and so holds no other pivot column.
    The reduced form of a matrix is unique, so neither the order of the
    clearing nor the choice among the rows holding a pivot column can change
    it: the sparsest of them is the pivot row, which keeps fill-in low.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for _, nums in m._data:
        if nums:
            buckets.setdefault(min(nums), []).append(dict(nums))
    done: list[tuple[int, dict[int, int]]] = []
    for pc in range(m.cols):
        if not buckets:
            break
        hits = buckets.pop(pc, None)
        if hits is None:
            continue
        prow = min(hits, key=len)
        for row in hits:
            if row is not prow:
                _reduce(row, prow, pc)
                if row:
                    buckets.setdefault(min(row), []).append(row)
        done.append((pc, prow))
    final: dict[int, dict[int, int]] = {}  # pivot column -> its reduced row, pivot entry > 0
    data = []
    for pc, row in reversed(done):
        if len(row) > 1:
            for j in final.keys() & row.keys():  # the later pivot columns in the row
                _reduce(row, final[j], j)
        g = gcd(*row.values())  # row / row[pc] in normal form: its pivot entry is 1
        if row[pc] < 0:
            g = -g
        if g != 1:
            row = {j: v // g for j, v in row.items()}
        final[pc] = row
        data.append((row[pc], row))
    data.reverse()
    data.extend([(1, {})] * (m.rows - len(done)))
    return RationalMatrix._from_storage(m.rows, m.cols, tuple(data)), tuple(pc for pc, _ in done)


def rank(m: RationalMatrix) -> int:
    return len(rref(m)[1])


def integer_primitive(vec: Iterable[Fraction]) -> Vector:
    """Scale a rational vector to integer entries with content 1.

    The sign is fixed so the first nonzero entry is positive; the zero
    vector is returned unchanged. This is the canonical representative of
    the vector's ray, used to make kernel output reproducible.
    """
    items = tuple(vec)
    den = lcm(*[x.denominator for x in items])
    nums = [x.numerator * (den // x.denominator) for x in items] if den != 1 else [x.numerator for x in items]
    g = gcd(*nums) or 1
    if next((n for n in nums if n), 0) < 0:  # the first nonzero entry
        g = -g
    return tuple([_fraction(n // g) for n in nums])


class KernelBasis(Sequence[Vector]):
    """Lazy, read-only kernel basis that equals the list of its vectors.

    Vector k is read off the reduced rows only when it is indexed or
    iterated, or as integer pairs by `_pairs(k)`.
    """

    __slots__ = ("_cols", "_free", "_by_free")

    def __init__(self, cols: int, free: list[int], by_free: dict[int, list[tuple[int, int, int]]]) -> None:
        self._cols, self._free, self._by_free = cols, free, by_free

    def __len__(self) -> int:
        return len(self._free)

    def __getitem__(self, k: int) -> Vector:
        return _dense(self._cols, ((j, _fraction(n)) for j, n in self._pairs(k)))

    def __iter__(self):
        return map(self.__getitem__, range(len(self._free)))

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (KernelBasis, list, tuple)) else NotImplemented

    def _pairs(self, k: int) -> list[tuple[int, int]]:
        """Vector k as ascending (column, nonzero integer) pairs."""
        fc = self._free[k]
        terms = self._by_free.get(fc, ())
        # v[pc] = -n/d, scaled by the lcm of the reduced denominators, of
        # which the integer rows need no gcd; every pivot column of the
        # terms lies below fc, and the lowest holds the first nonzero entry
        scale = lcm(*(d // gcd(n, d) for _, n, d in terms if d != 1))
        if terms and terms[0][1] > 0:
            scale = -scale
        return [*((pc, -n * scale // d) for pc, n, d in terms), (fc, scale)]


def kernel_basis(m: RationalMatrix) -> KernelBasis:
    """Basis of the right kernel {v : m.v = 0}, one vector per free column.

    Each basis vector is the canonical free-variable vector of the reduced
    echelon form (the chosen free variable set to 1, the others to 0),
    scaled to integer entries with content 1 and first nonzero entry
    positive. The basis is ordered by free column, and its vectors are
    formed only when read.
    """
    reduced, pivots = rref(m)
    # free column -> its reduced entries n/d as (pivot column, n, d), by pivot column
    by_free: dict[int, list[tuple[int, int, int]]] = {}
    for (den, nums), pc in zip(reduced._data, pivots):
        for j, n in nums.items():
            if j != pc:
                by_free.setdefault(j, []).append((pc, n, den))
    return KernelBasis(m.cols, sorted(set(range(m.cols)).difference(pivots)), by_free)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve.

    `solution` is the unique solution with every free variable set to zero,
    or None when the system is inconsistent. `rank` is the rank of m itself.
    """

    solution: Vector | None
    rank: int


def solve(m: RationalMatrix, b: Sequence[Fraction]) -> SolveResult:
    """Solve m.x = b exactly, zeroing free variables. Row i keeps its integers (times d_i)
    beside b_i * D * d_i, D the lcm of b's denominators, and D.x is divided by D on readout."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != rows {m.rows}")
    n = m.cols
    scale = lcm(*[x.denominator for x in b])
    data = tuple(
        (1, {**nums, n: rhs.numerator * (scale // rhs.denominator) * den} if rhs else nums)
        for (den, nums), rhs in zip(m._data, b)
    )
    reduced, pivots = rref(RationalMatrix._from_storage(m.rows, n + 1, data))
    if pivots and pivots[-1] == n:  # a reduced row [0 ... 0 | 1]
        return SolveResult(None, len(pivots) - 1)
    x = ((pc, _fraction(nums[n], den * scale)) for (den, nums), pc in zip(reduced._data, pivots) if n in nums)
    return SolveResult(_dense(n, x), len(pivots))
