"""Dense exact linear algebra over the rationals.

Every entry is a fractions.Fraction and every result is exact; there is no
floating point anywhere in this module. Matrices are small (desk-scale
instances have at most a few hundred columns), so a dense row-major layout
and plain Gauss-Jordan elimination are all that is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: Vector

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Fraction | int]], *, cols: int | None = None
    ) -> "RationalMatrix":
        if not rows:
            if cols is None:
                raise ValueError("cols is required for a matrix with no rows")
            return cls(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError(f"cols={cols} disagrees with row width {width}")
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != width:
                raise ValueError("rows have inconsistent lengths")
            flat.extend(Fraction(x) for x in row)
        return cls(len(rows), width, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        """Mutable copy of the rows, for elimination working storage."""
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        flat = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return RationalMatrix(self.cols, self.rows, flat)

    def mul_vector(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = _ZERO
            for j, x in enumerate(v):
                if x:
                    acc += self.entries[base + j] * x
            out.append(acc)
        return tuple(out)

    def restrict_columns(self, keep: Sequence[int]) -> "RationalMatrix":
        for j in keep:
            if not 0 <= j < self.cols:
                raise ValueError(f"column index {j} out of range")
        flat = tuple(self.at(i, j) for i in range(self.rows) for j in keep)
        return RationalMatrix(self.rows, len(keep), flat)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    acc = _ZERO
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the ordered pivot columns.

    Gauss-Jordan with the first nonzero candidate as pivot; exact arithmetic
    needs no pivoting strategy. Row space is preserved and the result is
    idempotent.
    """
    work = m.row_lists()
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for i in range(pr, m.rows):
            if work[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            work[pr], work[pivot_row] = work[pivot_row], work[pr]
        scale = work[pr][pc]
        if scale != 1:
            work[pr] = [x / scale for x in work[pr]]
        prow = work[pr]
        for i in range(m.rows):
            if i != pr and work[i][pc]:
                c = work[i][pc]
                work[i] = [a - c * b for a, b in zip(work[i], prow)]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return RationalMatrix.from_rows(work, cols=m.cols), tuple(pivots)


def rank(m: RationalMatrix) -> int:
    return len(rref(m)[1])


def integer_primitive(vec: Iterable[Fraction]) -> Vector:
    """Scale a rational vector to integer entries with content 1.

    The sign is fixed so the first nonzero entry is positive; the zero
    vector is returned unchanged. This is the canonical representative of
    the vector's ray, used to make kernel output reproducible.
    """
    items = list(vec)
    denom = 1
    for x in items:
        denom = lcm(denom, x.denominator)
    ints = [int(x * denom) for x in items]
    g = 0
    for z in ints:
        g = gcd(g, abs(z))
    if g > 1:
        ints = [z // g for z in ints]
    for z in ints:
        if z:
            if z < 0:
                ints = [-w for w in ints]
            break
    return tuple(Fraction(z) for z in ints)


def l1_normalized(vec: Iterable[Fraction]) -> Vector:
    """Scale so the absolute values sum to 1, first nonzero entry positive."""
    items = list(vec)
    total = sum(abs(x) for x in items)
    if total == 0:
        raise ValueError("cannot l1-normalize the zero vector")
    scaled = [x / total for x in items]
    for x in scaled:
        if x:
            if x < 0:
                scaled = [-y for y in scaled]
            break
    return tuple(scaled)


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right kernel {v : m.v = 0}, one vector per free column.

    Each basis vector is the canonical free-variable vector read off the
    reduced echelon form (the chosen free variable set to 1, the others to
    0), rescaled by integer_primitive. The list is ordered by free column.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for row_idx, pc in enumerate(pivots):
            coeff = reduced.at(row_idx, fc)
            if coeff:
                v[pc] = -coeff
        basis.append(integer_primitive(v))
    return basis


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact linear solve.

    On success `solution` is the unique solution with every free variable
    set to zero. On inconsistency `solution` is None and `conflict_row` is
    a row of rref([m|b]) of the shape [0 ... 0 | c] with c != 0, which
    certifies that no solution exists. `rank` is the rank of m itself.
    """

    solution: Vector | None
    conflict_row: Vector | None
    rank: int


def solve(m: RationalMatrix, b: Sequence[Fraction]) -> SolveResult:
    """Solve m.x = b exactly, zeroing free variables; certify inconsistency."""
    if len(b) != m.rows:
        raise ValueError(f"right-hand side length {len(b)} != rows {m.rows}")
    if m.rows == 0:
        return SolveResult((_ZERO,) * m.cols, None, 0)
    aug = RationalMatrix.from_rows(
        [list(m.row(i)) + [Fraction(b[i])] for i in range(m.rows)], cols=m.cols + 1
    )
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        conflict = reduced.row(len(pivots) - 1)
        return SolveResult(None, conflict, len(pivots) - 1)
    x = [_ZERO] * m.cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced.at(row_idx, m.cols)
    return SolveResult(tuple(x), None, len(pivots))
