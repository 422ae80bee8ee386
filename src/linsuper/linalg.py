"""Exact linear algebra over the rationals.

Every entry is a fractions.Fraction and every result is exact; there is no
floating point anywhere in this module. Matrices are stored dense, but the
one elimination, `rref`, runs on sparse integer rows (a 0/1 incidence matrix
has r ones per column), fraction-free in the manner of Bareiss; kernel, rank
and solve are read off its reduced form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

# Shared with the incidence matrix: `x is not _ZERO` skips the slow
# Fraction.__bool__ on the zeros that fill it and every kernel vector.
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

    def transpose(self) -> "RationalMatrix":
        flat = tuple(x for j in range(self.cols) for x in self.entries[j :: self.cols])
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
        flat = tuple(row[j] for row in map(self.row, range(self.rows)) for j in keep)
        return RationalMatrix(self.rows, len(keep), flat)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    acc = _ZERO
    for a, b in zip(u, v):
        if a is not _ZERO and a and b:
            acc += a * b
    return acc


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

    Gauss-Jordan on rows scaled to sparse integer {col: value} maps; Fractions
    are formed only to read the result out. Since the reduced form is unique,
    any row holding the pivot column can be its pivot: the sparsest keeps
    fill-in low.
    """
    cols = m.cols
    pending: list[dict[int, int]] = []
    for i in range(m.rows):
        row = {j: x for j, x in enumerate(m.row(i)) if x is not _ZERO and x}
        denom = lcm(*(x.denominator for x in row.values()))
        pending.append({j: x.numerator * (denom // x.denominator) for j, x in row.items()})
    done: list[tuple[int, dict[int, int]]] = []
    for pc in range(cols):
        hits = [row for row in pending if pc in row]
        if not hits:
            continue
        prow = min(hits, key=len)
        for row in hits + [row for _, row in done if pc in row]:
            if row is not prow:
                _reduce(row, prow, pc)
        pending = [row for row in pending if row and row is not prow]
        done.append((pc, prow))
    flat = [_ZERO] * (m.rows * cols)
    for i, (pc, row) in enumerate(done):
        base, p = i * cols, row[pc]
        for j, v in row.items():
            flat[base + j] = Fraction(v, p)
        flat[base + pc] = _ONE
    return RationalMatrix(m.rows, cols, tuple(flat)), tuple(pc for pc, _ in done)


def rank(m: RationalMatrix) -> int:
    return len(rref(m)[1])


def integer_primitive(vec: Iterable[Fraction]) -> Vector:
    """Scale a rational vector to integer entries with content 1.

    The sign is fixed so the first nonzero entry is positive; the zero
    vector is returned unchanged. This is the canonical representative of
    the vector's ray, used to make kernel output reproducible.
    """
    items = tuple(vec)
    nonzero = [(j, x) for j, x in enumerate(items) if x is not _ZERO and x]
    out = [_ZERO] * len(items)
    if nonzero:
        denom = lcm(*(x.denominator for _, x in nonzero))
        ints = [x.numerator * (denom // x.denominator) for _, x in nonzero]
        g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
        for (j, _), z in zip(nonzero, ints):
            out[j] = Fraction(z // g)
    return tuple(out)


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
    cols = m.cols
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [_ZERO] * cols
        v[fc] = _ONE
        for base, pc in zip(range(fc, len(pivots) * cols, cols), pivots):
            coeff = reduced.entries[base]
            if coeff is not _ZERO:
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
    flat: list[Fraction] = []
    for i, rhs in enumerate(b):
        flat.extend(m.row(i))
        flat.append(Fraction(rhs))
    aug = RationalMatrix(m.rows, m.cols + 1, tuple(flat))
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        conflict = reduced.row(len(pivots) - 1)
        return SolveResult(None, conflict, len(pivots) - 1)
    x = [_ZERO] * m.cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced.at(row_idx, m.cols)
    return SolveResult(tuple(x), None, len(pivots))
