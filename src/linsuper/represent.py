"""Deciding whether a function is a sum of univariate pieces of the family.

A function f on X lies in the span {g_1(h_1(x)) + ... + g_r(h_r(x))} exactly
when the transposed incidence system has a solution: one unknown g-value per
level class, one equation per point. Equivalently, f must be orthogonal to
the kernel of the incidence matrix, which is spanned by closed-path
coefficient vectors; a kernel vector with nonzero inner product against f is
therefore a self-contained proof of non-representability.

Both routes are implemented (the solver here, the orthogonality test as an
independent cross-check) and must always agree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .errors import InputValidationError, InternalInvariantError
from .linalg import _ONE, _ZERO, RationalMatrix, _row, kernel_basis, solve
from .model import IncidenceMatrix, PointSet
from .paths import ClosedPathCertificate, _certificate, evaluate_certificate

FunctionTable = Mapping[int, Fraction]


def _column_values(inc: IncidenceMatrix, f: FunctionTable) -> list[Fraction]:
    """Values of f in column order; reject missing or unknown point ids."""
    unknown = sorted(set(f) - set(inc.point_ids))
    if unknown:
        raise InputValidationError(f"function table mentions unknown point ids {unknown}")
    missing = [pid for pid in inc.point_ids if pid not in f]
    if missing:
        raise InputValidationError(f"function table misses a value for point id {missing[0]}")
    return [x if isinstance(x, Fraction) else Fraction(x) for x in map(f.__getitem__, inc.point_ids)]


@dataclass(frozen=True)
class Decomposition:
    """Univariate tables g_i on the observed values of h_i, one per function.
    Off the observed values the g_i are taken to be zero. `reconstruction` is
    the target as given (point id -> value), which the tables give back.

    `freedom` is the dimension of the affine space of all valid g-tables;
    the decomposition with every free unknown zeroed is the canonical one.
    """

    tables: tuple[dict[Fraction, Fraction], ...]
    freedom: int
    reconstruction: dict[int, Fraction]


@dataclass(frozen=True)
class RepresentationResult:
    representable: bool
    decomposition: Decomposition | None = None
    violation: ClosedPathCertificate | None = None
    violation_value: Fraction | None = None


def is_representable(inc: IncidenceMatrix, f: FunctionTable) -> RepresentationResult:
    """Decide membership of f in the superposition span; construct a witness.

    On success the returned decomposition reconstructs f exactly (rational
    equality, no tolerance). On failure the result carries a closed-path
    certificate whose functional evaluates to a nonzero value on f.
    """
    values = _column_values(inc, f)
    basis = kernel_basis(inc.matrix)
    # the pivot points are a column basis of M, so their equations of
    # M^T g = f give the canonical g and the rank of the whole system
    free = set(basis._free)
    pivots = [j for j in range(inc.n_points) if j not in free]
    rows = inc._column_rows
    equations = RationalMatrix._from_storage(len(pivots), len(inc.classes), tuple((1, rows[j]) for j in pivots))
    outcome = solve(equations, [values[j] for j in pivots])
    if outcome.solution is None:  # pragma: no cover - independent equations are consistent
        raise InternalInvariantError("the pivot-point equations are inconsistent")
    g = outcome.solution
    fden, fnums = _row(values)  # f = fnums / fden in integers, zeros left out
    gden, gnums = _row(g)
    sums = [0] * inc.n_points  # the reconstruction times gden
    for k, n in gnums.items():
        for j in inc.classes[k].columns:
            sums[j] += n
    common = lcm(fden, gden)  # mostly equal to both, so neither side grows
    fs, gs = common // fden, common // gden
    bad = next((j for j, total in enumerate(sums) if total * gs != fnums.get(j, 0) * fs), None)
    if bad is None:  # a member exactly when g reconstructs f at every point
        tables = tuple({} for _ in range(inc.r))
        for cls, value in zip(inc.classes, g):
            tables[cls.function_index][cls.value] = value
        freedom = len(inc.classes) - outcome.rank
        return RepresentationResult(True, decomposition=Decomposition(tables, freedom, dict(zip(inc.point_ids, values))))
    # f - M^T g is zero on the pivot points and kernel vector k on the free points
    # but its own: the first point not reconstructed is the first violated vector's
    pairs = basis._pairs(bisect_left(basis._free, bad)) if bad in free else []
    total = sum(n * fnums.get(j, 0) for j, n in pairs)
    if not total:  # pragma: no cover - the residual is zero on the pivot points
        raise InternalInvariantError("f is not reconstructed but is orthogonal to the kernel")
    cert = _certificate(inc.point_ids, pairs)
    return RepresentationResult(False, violation=cert, violation_value=Fraction(total, fden))


def representable_by_orthogonality(inc: IncidenceMatrix, f: FunctionTable) -> bool:
    """Membership via orthogonality to the kernel basis.

    Independent of the solver route in is_representable; the two must agree
    on every input.
    """
    _, fnums = _row(_column_values(inc, f))
    basis = kernel_basis(inc.matrix)
    return not any(sum(n * fnums.get(j, 0) for j, n in basis._pairs(k)) for k in range(len(basis)))


@dataclass(frozen=True)
class Witness:
    """The sign function of a closed path: +1 where lambda > 0, -1 where
    lambda < 0, 0 off the path. Its path functional evaluates to
    sum(|lambda_j|) > 0, so no superposition can equal it."""

    certificate: ClosedPathCertificate
    f0: dict[int, Fraction]
    value: Fraction


def make_witness(cert: ClosedPathCertificate, points: PointSet | Sequence[int]) -> Witness:
    """Build the non-representable sign function for a certificate.

    `points` may be the point set itself or just its ids; the witness is 0
    on every point outside the certificate support.
    """
    point_ids = points.ids if isinstance(points, PointSet) else points
    f0 = {pid: _ZERO for pid in point_ids}
    missing = [pid for pid in cert.support if pid not in f0]
    if missing:
        raise InputValidationError(f"certificate support {missing} is not part of the point set")
    for pid, lam in zip(cert.support, cert.lam):
        f0[pid] = _ONE if lam > 0 else -_ONE
    value = evaluate_certificate(cert, f0)
    if value != sum(abs(x) for x in cert.lam):  # pragma: no cover - identity by construction
        raise InternalInvariantError("witness value is not the l1 norm of the certificate")
    return Witness(cert, f0, value)
