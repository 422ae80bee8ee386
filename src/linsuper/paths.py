"""Closed paths: detection, certification, enumeration, and functional algebra.

A closed path is a point subset admitting a coefficient vector with all
entries nonzero that sums to zero over every level class of every function,
i.e. a full-support kernel vector of the support-restricted incidence
matrix. A minimal closed path contains no closed path as a proper subset;
minimal paths are exactly the circuits of the column matroid of the
incidence matrix, and are characterized by a one-dimensional restricted
kernel whose generator has full support.

Everything here is exact. A certificate is a self-contained proof object:
its vector can be re-verified against the matrix by anyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, Mapping, Sequence

from .errors import ConstraintError, ContractViolationError, InputValidationError, InternalInvariantError
from .linalg import _ZERO, Vector, _fraction, _row, integer_primitive, kernel_basis
from .model import IncidenceMatrix


@dataclass(frozen=True)
class ClosedPathCertificate:
    """A point subset plus the coefficient vector witnessing its closed path.

    `support` lists point ids in column order and `lam` is aligned with it;
    every entry of `lam` is nonzero. When `normalized` is set the absolute
    values of `lam` sum to 1 and the first entry is positive. `minimal` is
    None when minimality has not been decided. The checks, the two scaled
    forms and `verify_certificate` read `_nums`, the numerators of `lam`
    over the lcm of its denominators.
    """

    support: tuple[int, ...]
    lam: tuple[Fraction, ...]
    normalized: bool = False
    minimal: bool | None = None

    def __post_init__(self) -> None:
        den = lcm(*(x.denominator for x in self.lam))
        self._check([x.numerator * (den // x.denominator) for x in self.lam], den)

    @classmethod
    def _of(cls, support: tuple[int, ...], nums: Sequence[int], den: int, normalized=False, minimal=None):
        """The certificate lam = nums / den, checked on these integers; one Fraction per distinct value."""
        lam = {n: _fraction(n, den) for n in set(nums)}
        cert = cls.__new__(cls)
        cert.__dict__.update(support=support, lam=tuple(map(lam.__getitem__, nums)), normalized=normalized, minimal=minimal)
        cert._check(nums, den)
        return cert

    def _check(self, nums: Sequence[int], den: int) -> None:
        """Every check runs on one integer form, lam = nums / den; `_nums` is it in lowest terms."""
        if not self.support:
            raise InputValidationError("a certificate needs a nonempty support")
        if len(self.support) != len(nums):
            raise InputValidationError("support and coefficient vector lengths differ")
        if not all(nums):
            raise InputValidationError("certificate coefficients must all be nonzero")
        if self.normalized and sum(map(abs, nums)) != den:
            raise InputValidationError("normalized certificate must have unit l1 norm")
        g = gcd(den, *nums)
        object.__setattr__(self, "_nums", tuple(nums) if g == 1 else tuple(n // g for n in nums))

    def integer_lambda(self) -> Vector:
        """Integer content-1 form of the coefficients, first entry positive."""
        return integer_primitive(self._nums)

    def normalized_lambda(self) -> Vector:
        """Unit-l1 form of the coefficients, first entry positive."""
        total = sum(map(abs, self._nums))
        if self._nums[0] < 0:
            total = -total
        return tuple(Fraction(n, total) for n in self._nums)

    def as_table(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.lam))


def verify_certificate(inc: IncidenceMatrix, cert: ClosedPathCertificate) -> None:
    """Re-verify a certificate against the instance; raise if it fails.

    Checks the support ids, that all coefficients are nonzero, and that the
    coefficients sum to exactly zero over every level class.
    """
    columns = list(map(inc.column_index, cert.support))
    if columns != sorted(set(columns)):
        raise InternalInvariantError(f"certificate support {cert.support} is not in column order")
    if not all(cert._nums):
        raise InternalInvariantError("certificate carries a zero coefficient")
    # a positive multiple of the coefficients, as ints by column: their sums are much cheaper
    table = [0] * inc.n_points
    for j, n in zip(columns, cert._nums):
        table[j] = n
    for cls in inc.classes:
        if sum(map(table.__getitem__, cls.columns)):
            raise InternalInvariantError("certificate vector does not annihilate the level classes")


def evaluate_certificate(cert: ClosedPathCertificate, values: Mapping[int, Fraction]) -> Fraction:
    """The path functional f -> sum(lam_j * f(x_j)) evaluated on a table."""
    acc = _ZERO
    for pid, lam in zip(cert.support, cert.lam):
        try:
            acc += lam * values[pid]
        except KeyError:
            raise InputValidationError(f"function table has no value for point id {pid}") from None
    return acc


def certificate_from_kernel_vector(inc: IncidenceMatrix, vec: Vector) -> ClosedPathCertificate:
    """Restrict a full-length kernel vector to its support."""
    den, nums = _row(vec)
    return ClosedPathCertificate._of(tuple(map(inc.point_ids.__getitem__, nums)), list(nums.values()), den)


def _certificate(point_ids: Sequence[int], pairs: list[tuple[int, int]]) -> ClosedPathCertificate:
    """The certificate of a kernel vector given as (column, integer) pairs."""
    return ClosedPathCertificate._of(tuple(point_ids[j] for j, _ in pairs), [n for _, n in pairs], 1)


def detect(inc: IncidenceMatrix) -> ClosedPathCertificate | None:
    """Find one closed path, or None when no subset of X is a closed path.

    The kernel of the incidence matrix is trivial exactly when the matrix
    has full column rank; any nonzero kernel vector, restricted to its
    support, is a closed-path certificate.
    """
    basis = kernel_basis(inc.matrix)
    if not basis:
        return None
    return _certificate(inc.point_ids, basis._pairs(0))


def _circuit(point_ids: Sequence[int], pairs: list[tuple[int, int]]) -> ClosedPathCertificate:
    """The normalized minimal certificate on the support of a circuit vector.

    Every canonical kernel vector is one: it is supported on its free column
    f and on independent pivot columns (the fundamental circuit of f). It
    comes as the ascending (column, integer) pairs of `KernelBasis._pairs`,
    the first value positive.
    """
    nums = [n for _, n in pairs]
    return ClosedPathCertificate._of(tuple(point_ids[j] for j, _ in pairs), nums, sum(map(abs, nums)), True, True)


def _closed_kernel(inc: IncidenceMatrix, support: Iterable[int]) -> tuple[tuple[int, ...], list[list[tuple[int, int]]]]:
    """The support in column order and its restricted kernel basis, as pairs.

    Raises ContractViolationError unless the support is a closed path, i.e.
    unless the supports of the basis vectors cover it: a coordinate that
    vanishes on every basis vector vanishes on the whole span.
    """
    ordered = inc.sorted_support(support)
    if not ordered:
        raise InputValidationError("support must be nonempty")
    basis = kernel_basis(inc.restricted(ordered))
    vectors = [basis._pairs(k) for k in range(len(basis))]
    if len({j for vec in vectors for j, _ in vec}) < len(ordered):
        raise ContractViolationError(f"support {ordered} is not a closed path (no full-support kernel vector)")
    return ordered, vectors


def is_closed_path(inc: IncidenceMatrix, support: Iterable[int]) -> Vector | None:
    """Coefficient vector making `support` a closed path, or None.

    The returned vector is aligned with the support ids in column order,
    has integer content-1 entries, all nonzero, and annihilates every level
    class restricted to the support. For a basis of k vectors, the
    combination with coefficients 1, B, B^2, ... has, in each coordinate, a
    nonzero polynomial in B of degree < k; walking B upward from size+1
    must escape all roots within size*(k-1)+1 attempts.
    """
    try:
        ordered, basis = _closed_kernel(inc, support)
    except ContractViolationError:
        return None
    size, k = len(ordered), len(basis)
    for b in range(size + 1, size + 2 + size * (k - 1)):
        combo = [0] * size
        weight = 1
        for vec in basis:
            for j, n in vec:
                combo[j] += weight * n
            weight *= b
        if all(combo):
            return integer_primitive(combo)
    raise InternalInvariantError("full-support search exhausted its root bound")  # pragma: no cover


@dataclass(frozen=True)
class MinimalityResult:
    """Outcome of a minimality check on a closed path.

    Exactly one of `certificate` (minimal: the normalized certificate) and
    `counterexample` (not minimal: a proper subset that is itself a closed
    path) is set.
    """

    is_minimal: bool
    certificate: ClosedPathCertificate | None = None
    counterexample: tuple[int, ...] | None = None


def certify_minimal(inc: IncidenceMatrix, support: Iterable[int]) -> MinimalityResult:
    """Decide whether a closed path is minimal.

    A closed path is minimal iff the restricted kernel is one-dimensional
    (its generator then has full support): a proper-subset path would embed
    a second, independent kernel vector. The counterexample is the support
    of the first canonical kernel vector, a circuit. Raises
    ContractViolationError when the support is not a closed path at all.
    """
    ordered, basis = _closed_kernel(inc, support)
    first = _circuit(ordered, basis[0])
    if len(basis) == 1:
        return MinimalityResult(True, certificate=first)
    return MinimalityResult(False, counterexample=first.support)


def find_minimal_within(inc: IncidenceMatrix, support: Iterable[int]) -> ClosedPathCertificate:
    """A minimal closed path inside a closed path: the first canonical
    vector of the restricted kernel, which is a circuit."""
    ordered, basis = _closed_kernel(inc, support)
    return _circuit(ordered, basis[0])


@dataclass(frozen=True)
class FunctionalDecomposition:
    """A path functional written as a combination of minimal-path functionals.

    Each term is (coefficient, normalized minimal certificate); summing
    coefficient * lambda over the terms, as vectors over point ids,
    reproduces the input functional exactly.
    """

    terms: tuple[tuple[Fraction, ClosedPathCertificate], ...]

    def recombined(self) -> dict[int, Fraction]:
        table: dict[int, Fraction] = {}
        for coeff, cert in self.terms:
            for pid, lam in zip(cert.support, cert.lam):
                table[pid] = table.get(pid, _ZERO) + coeff * lam
        return {pid: v for pid, v in table.items() if v}


def decompose_functional(
    inc: IncidenceMatrix, cert: ClosedPathCertificate
) -> FunctionalDecomposition:
    """Write a closed-path functional over the fundamental circuits of its support.

    The canonical vectors of the restricted kernel are circuits, one per
    free column f, and only the one of f is nonzero at f. So the kernel
    vector lam is the sum over f of (lam(f) / nu_f(f)) * nu_f: one term per
    circuit, every coefficient nonzero since lam has full support.
    """
    verify_certificate(inc, cert)
    ordered, basis = _closed_kernel(inc, cert.support)
    circuits = [(_circuit(ordered, pairs), pairs[-1][0]) for pairs in basis]  # each with its free column
    return FunctionalDecomposition(tuple((cert.lam[f] / circuit.lam[-1], circuit) for circuit, f in circuits))


EnumerationMode = Literal["fundamental", "exhaustive"]
# A DFS node costs at most one elimination of the rows its columns meet, 3-40 us
# in the README's measurements, so the limit stops a search within seconds.
EXHAUSTIVE_NODE_LIMIT = 100_000


def _closed_by_last(inc: IncidenceMatrix, candidate: list[int], touched: list[int]) -> list[tuple[int, int]] | None:
    """The circuit that the last column closes on an independent candidate, as kernel
    pairs, or None. On a row no other column touches, its coefficient is forced to 0."""
    if not all(touched[k] for k in inc._column_rows[candidate[-1]]):
        return None
    basis = kernel_basis(inc.restricted([inc.point_ids[c] for c in candidate]))
    return basis._pairs(0) if basis else None


def enumerate_minimal(
    inc: IncidenceMatrix, max_support: int | None = None, mode: EnumerationMode = "fundamental"
) -> list[ClosedPathCertificate]:
    """Enumerate minimal closed paths.

    fundamental: the fundamental circuits of the pivot basis, one per
    kernel dimension: each canonical kernel vector of the incidence matrix
    is a circuit. They form a basis of the kernel, which suffices for every
    representability decision. max_support is ignored here.

    exhaustive: every minimal closed path with support size <= max_support,
    found by depth-first search over independent column sets of one
    connected part at a time; adding one column to an independent set
    either stays independent (extend) or closes exactly one circuit
    (record, do not extend, since any superset would contain it properly).
    Exponential; a search past EXHAUSTIVE_NODE_LIMIT nodes raises
    ConstraintError.

    Results are sorted by (support size, support) and deduplicated.
    """
    if mode not in ("fundamental", "exhaustive"):
        raise InputValidationError(f"unknown enumeration mode {mode!r}")
    if mode == "fundamental":
        # distinct: each support holds its own free column and no other one
        basis = kernel_basis(inc.matrix)
        certs = [_circuit(inc.point_ids, basis._pairs(k)) for k in range(len(basis))]
        return sorted(certs, key=lambda cert: (len(cert.support), cert.support))
    if max_support is None or max_support < 2:
        raise InputValidationError("exhaustive enumeration needs max_support >= 2")
    # A column on no vector of one kernel basis is a coloop, on no circuit.
    # Each canonical vector is a fundamental circuit, and merging those that
    # meet gives the connected parts of the matroid: no circuit spans two.
    full = kernel_basis(inc.matrix)
    parts: list[set[int]] = []
    for k in range(len(full)):
        part = {j for j, _ in full._pairs(k)}
        for other in [p for p in parts if p & part]:
            part |= other
            parts.remove(other)
        parts.append(part)
    found: dict[tuple[int, ...], ClosedPathCertificate] = {}  # by column indices
    nodes = 0
    touched = [0] * inc.matrix.rows  # per class row: the columns of `columns` on it

    def visit(part: list[int], columns: list[int], start: int) -> None:
        nonlocal nodes
        for i in range(start, len(part)):
            nodes += 1
            if nodes > EXHAUSTIVE_NODE_LIMIT:
                raise ConstraintError(f"exhaustive search exceeds its limit of {EXHAUSTIVE_NODE_LIMIT} nodes; "
                                      "lower max_support or enumerate in fundamental mode")
            candidate = columns + [part[i]]
            # candidate was independent before its last column, so its kernel is
            # at most a line and the generator's support is the unique circuit through it.
            pairs = _closed_by_last(inc, candidate, touched)
            if pairs is None:
                if len(candidate) < max_support:
                    rows = inc._column_rows[part[i]]
                    for k in rows:
                        touched[k] += 1
                    visit(part, candidate, i + 1)
                    for k in rows:
                        touched[k] -= 1
                continue
            circuit = tuple(candidate[c] for c, _ in pairs)
            if circuit not in found:
                found[circuit] = _circuit([inc.point_ids[c] for c in candidate], pairs)

    for part in parts:
        visit(sorted(part), [], 0)
    return sorted(found.values(), key=lambda cert: (len(cert.support), cert.support))
