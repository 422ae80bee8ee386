"""Ridge instantiation: inner functions of the form h_i(x) = a_i . x.

Fixing directions a_1,...,a_r turns the abstract machinery into statements
about sums of ridge functions g_i(a_i . x). A finite point set fails some
interpolation problem for these sums (the NI property) exactly when it
contains a closed path with respect to the induced level structure, and
fails minimally (MNI) exactly when the whole set is a minimal closed path.

This module also constructs the classic combinatorial obstructions and
non-obstructions: the hypercube path around an interior point (which shows
that sets with interior points are never fully representable) and several
families of point configurations that provably carry no closed paths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import floor, lcm
from operator import add
from typing import Literal, Sequence

from .errors import ConstraintError, InputValidationError, InternalInvariantError
from .linalg import _ONE, _ZERO, RationalMatrix, Vector, _fraction, kernel_basis, solve
from .model import FunctionFamily, PointSet, build_incidence, coordinate_points
from .paths import ClosedPathCertificate, _certificate, _circuit, detect, verify_certificate

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
)


@dataclass(frozen=True)
class Direction:
    """A nonzero rational direction vector."""

    vector: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.vector or all(x == 0 for x in self.vector):
            raise InputValidationError("a direction must be a nonzero vector")

    @property
    def dimension(self) -> int:
        return len(self.vector)


def direction(components: Sequence[Fraction | int]) -> Direction:
    return Direction(tuple(Fraction(c) for c in components))


@dataclass(frozen=True)
class RidgeInstance:
    """Directions plus coordinate points plus the induced value tables."""

    directions: tuple[Direction, ...]
    points: PointSet
    family: FunctionFamily


def _dimension(directions: Sequence[Direction]) -> int:
    """The dimension shared by at least one direction."""
    if not directions:
        raise InputValidationError("at least one direction is required")
    dims = {d.dimension for d in directions}
    if len(dims) != 1:
        raise InputValidationError(f"directions of mixed dimensions {sorted(dims)}")
    return dims.pop()


def ridge_instance(directions: Sequence[Direction], points: PointSet) -> RidgeInstance:
    """Tabulate h_i(x_j) = a_i . x_j exactly and wrap it as an instance."""
    dim = _dimension(directions)
    if len(points):
        if points.require_coordinates() != dim:
            raise InputValidationError(
                f"points have dimension {points.dimension}, directions have {dim}"
            )
    axes = [[p.coords[k] for p in points.points] for k in range(dim)]
    scales = [lcm(*(x.denominator for x in axis)) for axis in axes]
    columns = [[x.numerator * (s // x.denominator) for x in axis] for axis, s in zip(axes, scales)]
    return _tabulate(directions, points, columns, scales)


def _tabulate(
    directions: Sequence[Direction], points: PointSet, columns: Sequence[Sequence[int]], scales: Sequence[int]
) -> RidgeInstance:
    """The instance on points whose coordinate k is X_k / D_k = columns[k][j] / scales[k]
    at point j, tabulated as a . x = sum(A_k X_k) / L with integers A_k = L a_k / D_k."""
    ids = points.ids
    tables = []
    for d in directions:
        weights = [Fraction(a, s) for a, s in zip(d.vector, scales)]
        common = lcm(*(w.denominator for w in weights))
        sums = [0] * len(points)
        for w, column in zip(weights, columns):
            if w:
                a = w.numerator * (common // w.denominator)
                sums = [t + a * x for t, x in zip(sums, column)]
        levels = {v: Fraction(v, common) for v in set(sums)}  # one Fraction per level
        tables.append({pid: levels[v] for pid, v in zip(ids, sums)})
    return RidgeInstance(tuple(directions), points, FunctionFamily(tuple(tables)))


@dataclass(frozen=True)
class NIClassification:
    """Interpolation verdict for a finite point set against fixed directions.

    kind "interpolable": every data vector on the points is matched by some
    sum of ridge functions. kind "NI": some data is unreachable; `m` is an
    integer vector (over all points, zeros allowed) whose level-class sums
    all vanish. kind "MNI": additionally the whole set is a minimal closed
    path, so `m` has no zero entries and is unique up to scale.
    """

    kind: Literal["interpolable", "NI", "MNI"]
    m: Vector | None = None
    certificate: ClosedPathCertificate | None = None


def classify_ni(instance: RidgeInstance) -> NIClassification:
    """Classify from one kernel basis of the full incidence matrix.

    A trivial kernel means no closed path. The whole set is a minimal closed
    path exactly when the kernel is a line whose generator has full support.
    Otherwise the first basis vector, which is what `detect` reports, gives
    both the certificate and `m`. The certificate is verified before it is
    returned.
    """
    inc = build_incidence(instance.points, instance.family)
    basis = kernel_basis(inc.matrix)
    if not basis:
        return NIClassification("interpolable")
    generator = basis[0]  # integer, content 1, first nonzero entry positive
    pairs = basis._pairs(0)
    if len(basis) == 1 and len(pairs) == inc.n_points:
        verdict = NIClassification("MNI", generator, _circuit(inc.point_ids, pairs))
    else:
        verdict = NIClassification("NI", generator, _certificate(inc.point_ids, pairs))
    verify_certificate(inc, verdict.certificate)
    return verdict


@dataclass(frozen=True)
class HypercubePath:
    """The 2^r points y + sum(eps_i * b_i) with signs (-1)^|eps|.

    Each offset b_i is orthogonal to direction a_i, so flipping eps_i does
    not change a_i . x; the points pair up inside every level class and the
    signs cancel, which makes the pair (points, lambda) a closed path.
    """

    center: tuple[Fraction, ...]
    offsets: tuple[tuple[Fraction, ...], ...]
    epsilons: tuple[tuple[int, ...], ...]
    instance: RidgeInstance
    lam: tuple[Fraction, ...]

    def certificate(self) -> ClosedPathCertificate:
        return ClosedPathCertificate._of(self.instance.points.ids, [x.numerator for x in self.lam], 1)


def _orthogonal_candidates(a: Sequence[int], den: int) -> list[tuple[int, ...]]:
    """Deterministic nonzero vectors c with c / den orthogonal to a, most
    canonical first.

    Coordinate vectors (den e_z) for every zero coordinate of a, then
    swap-negate vectors for every pair of nonzero coordinates.
    """
    d = len(a)
    candidates = [tuple(den if k == z else 0 for k in range(d)) for z in range(d) if not a[z]]
    for p, q in combinations([k for k in range(d) if a[k]], 2):
        vec = [0] * d
        vec[p], vec[q] = a[q], -a[p]
        candidates.append(tuple(vec))
    return candidates


def _parallel(x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> bool:
    """Nonzero vectors are parallel iff every 2x2 minor vanishes."""
    return all(
        x[p] * y[q] == x[q] * y[p]
        for p in range(len(x))
        for q in range(p + 1, len(x))
    )


def _offset_candidates(a: tuple[Fraction, ...], count: int) -> tuple[int, list[tuple[int, ...]]]:
    """A denominator D and up to `count` integer vectors c whose c / D are
    pairwise nonparallel and orthogonal to a.

    a is read as integers A over the lcm D of its denominators, so the
    candidates of A / D are integers over D. When the orthogonal complement
    of a has dimension >= 2 the sequence u, v, u+v, u+2v, ... provides as
    many distinct lines as requested; a one-dimensional complement (only
    possible for d = 2) yields a single candidate.
    """
    den = lcm(*(x.denominator for x in a))
    pool = _orthogonal_candidates([x.numerator * (den // x.denominator) for x in a], den)
    if not pool:
        return den, []
    u = pool[0]
    v = next((c for c in pool[1:] if not _parallel(u, c)), None)
    if v is None:
        return den, [u]
    candidates = [u, v]
    t = 1
    while len(candidates) < count:
        candidates.append(tuple(uc + t * vc for uc, vc in zip(u, v)))
        t += 1
    return den, candidates


# 2^14 points take about a second from the offsets to the verified path, 2^15 four.
HYPERCUBE_DIRECTION_LIMIT = 14


def _separating_powers(base: Sequence[tuple[int, tuple[int, ...]]]) -> list[int]:
    """Factors B^0, ..., B^(r-1) for offsets c_i / D_i that keep the 2^r points apart.

    w = (1, t, t^2, ...) with t = 1 + max|c_ik| has w . c_i != 0 by Cauchy's root
    bound. With u_i = w . c_i / D_i and B > 1 + max|u| / min|u|, the highest index
    where two sign patterns differ outweighs all lower ones in w . x.
    """
    t = 1 + max(abs(c) for _, vec in base for c in vec)
    u = [abs(Fraction(sum(c * t**k for k, c in enumerate(vec)), den)) for den, vec in base]
    b = floor(max(u) / min(u)) + 2
    return [b**i for i in range(len(base))]


def hypercube_path(
    directions: Sequence[Direction],
    center: Sequence[Fraction | int],
    scale: Fraction | int = 1,
) -> HypercubePath:
    """Construct the hypercube closed path around a center point.

    Offsets are chosen deterministically (orthogonal candidates scaled by
    distinct primes times `scale`) and must be pairwise linearly
    independent; if the 2^r resulting points collide the prime scalings are
    shifted and the construction retried, and powers that separate the points
    by construction come last. More than HYPERCUBE_DIRECTION_LIMIT directions
    raise ConstraintError. The output is verified exactly before it is returned.
    """
    directions = tuple(directions)
    d = _dimension(directions)
    r = len(directions)
    if r > HYPERCUBE_DIRECTION_LIMIT:
        raise ConstraintError(f"{r} directions exceed the hypercube path's limit of {HYPERCUBE_DIRECTION_LIMIT} directions")
    if d < 2:
        raise ConstraintError(
            "dimension 1 admits no nonzero vector orthogonal to a direction; need d >= 2"
        )
    center_vec = tuple(Fraction(c) for c in center)
    if len(center_vec) != d:
        raise InputValidationError(f"center has dimension {len(center_vec)}, directions have {d}")
    scale = Fraction(scale)
    if scale == 0:
        raise ConstraintError("scale must be nonzero; zero would collapse all points")

    base: list[tuple[int, tuple[int, ...]]] = []  # offset i before scaling is c / D
    for idx, dirn in enumerate(directions):
        den, candidates = _offset_candidates(dirn.vector, r + 2)
        picked = next((c for c in candidates if not any(_parallel(c, b) for _, b in base)), None)
        if picked is None:
            raise ConstraintError(
                f"no offset orthogonal to direction {idx} is independent of the earlier "
                "offsets (parallel directions in the plane leave a single orthogonal line)"
            )
        base.append((den, picked))
    # coordinate k of every point is an integer over dens[k]; offset i is
    # scale * factor_i * c_i / D_i
    common = scale.denominator * lcm(*(den for den, _ in base))
    dens = [lcm(x.denominator, common) for x in center_vec]
    start = tuple(x.numerator * (m // x.denominator) for x, m in zip(center_vec, dens))
    epsilons = tuple(product((0, 1), repeat=r))
    signs = [1]  # (-1)^|eps| in epsilons order, by doubling
    for _ in range(r):
        signs += [-s for s in signs]
    for primes in [*(_PRIMES[i : i + r] for i in range(len(_PRIMES) - r + 1)), _separating_powers(base)]:
        factors = [scale.numerator * p for p in primes]
        offsets = tuple(
            tuple(Fraction(f * c, scale.denominator * den) if c else _ZERO for c in vec)
            for f, (den, vec) in zip(factors, base)
        )
        steps = [
            [f * c * (m // (scale.denominator * den)) for c, m in zip(vec, dens)]
            for f, (den, vec) in zip(factors, base)
        ]
        # in epsilons order, by doubling: the last step first, each shifting all points so far
        numerators = [start]
        for step in reversed(steps):
            numerators += [tuple(map(add, point, step)) for point in numerators]
        if len(set(numerators)) == len(numerators):
            # one Fraction per distinct coordinate value
            columns = list(zip(*numerators))
            axes = [{n: Fraction(n, m) for n in set(column)} for column, m in zip(columns, dens)]
            coords = [tuple(axis[n] for axis, n in zip(axes, point)) for point in numerators]
            points = coordinate_points(coords)
            lam = tuple(map(_fraction, signs))
            instance = _tabulate(directions, points, columns, dens)
            path = HypercubePath(center_vec, offsets, epsilons, instance, lam)
            # nonzero signs that annihilate every level class: a closed path
            verify_certificate(build_incidence(points, instance.family), path.certificate())
            return path
    raise InternalInvariantError("could not separate the hypercube points")  # pragma: no cover - the powers do


ExampleKind = Literal["parallel-lines", "zigzag", "staircase", "transversal-curve"]


@dataclass(frozen=True)
class GeneratedExample:
    """A generated point configuration that carries no closed paths. `note`
    records whether path-freeness was verified on the emitted sample only
    (infinite configurations) or on the whole set."""

    kind: str
    instance: RidgeInstance
    note: str


@dataclass(frozen=True)
class ParallelLinesParams:
    """Two parallel lines base_k + t * line_direction, sampled at
    t = start, start+step, ... The lines must not be perpendicular to
    either ridge direction, and must be distinct."""

    directions: tuple[Direction, Direction]
    line_direction: tuple[Fraction, ...]
    base_first: tuple[Fraction, ...]
    base_second: tuple[Fraction, ...]
    samples_per_line: int = 6
    start: Fraction = _ZERO
    step: Fraction = _ONE


@dataclass(frozen=True)
class ZigzagParams:
    """Samples of the unit triangle wave (period 4, slopes +-1) against the
    diagonal directions (1,1) and (1,-1)."""

    count: int = 8
    start: Fraction = _ZERO
    step: Fraction = Fraction(1, 2)


@dataclass(frozen=True)
class StaircaseParams:
    """The r+1 chain points for the given directions: point 1 at the origin,
    point k+1 moved off the common a_k level while staying on all others."""

    directions: tuple[Direction, ...]


@dataclass(frozen=True)
class TransversalCurveParams:
    """A polynomial curve gamma(t), one coefficient list per coordinate
    (low degree first), sampled at t = start, start+step, ... Some
    direction must meet every level at most once on the sample."""

    directions: tuple[Direction, ...]
    coefficients: tuple[tuple[Fraction, ...], ...]
    count: int = 8
    start: Fraction = _ZERO
    step: Fraction = _ONE


Sample = tuple[tuple[Direction, ...], list[tuple[Fraction, ...]]]  # directions, point coordinates


def generate_pathfree_example(
    kind: ExampleKind,
    params: ParallelLinesParams | ZigzagParams | StaircaseParams | TransversalCurveParams,
) -> GeneratedExample:
    """Emit a sample of the named configuration and confirm it is path-free.

    Defining constraints are validated before emission and a ConstraintError
    names any violated clause; for every kind the sample points must be
    distinct. The emitted sample is always re-checked with detect; a failure
    of that check is an internal error.
    """
    kinds = {  # kind -> (sample builder, check of the tabulated sample, note)
        "parallel-lines": (
            _build_parallel_lines,
            None,
            "path-freeness verified on the emitted sample; the full lines are asserted",
        ),
        "zigzag": (
            _build_zigzag,
            None,
            "path-freeness verified on the emitted sample; the full zigzag is asserted",
        ),
        "staircase": (
            _build_staircase,
            _validate_staircase_chain,
            "path-freeness verified on the whole configuration",
        ),
        "transversal-curve": (
            _build_transversal_curve,
            _validate_transversal_condition,
            "transversality and path-freeness verified on the emitted sample only",
        ),
    }
    if kind not in kinds:
        raise InputValidationError(f"unknown example kind {kind!r}")
    build, check, note = kinds[kind]
    directions, coords = build(params)
    if len(set(coords)) != len(coords):
        raise ConstraintError(f"{kind} sample points collide: distinct parameters must give distinct points")
    instance = ridge_instance(directions, coordinate_points(coords))
    if check is not None:
        check(instance)
    inc = build_incidence(instance.points, instance.family)
    if detect(inc) is not None:  # pragma: no cover - the constructions forbid this
        raise InternalInvariantError(f"generated {kind} sample contains a closed path")
    return GeneratedExample(kind, instance, note)


def _parameters(count: int, start: Fraction, step: Fraction) -> list[Fraction]:
    """The sample parameters start, start + step, ..., count of them."""
    if count < 0:
        raise ConstraintError("sample count must be nonnegative")
    return [start + k * step for k in range(count)]


def _build_parallel_lines(params: ParallelLinesParams) -> Sample:
    d = _dimension(params.directions)
    if len(params.directions) != 2:
        raise ConstraintError("parallel-lines requires exactly two directions")
    w = params.line_direction
    bases = (params.base_first, params.base_second)
    for name, vec in zip(("line direction", "first base", "second base"), (w, *bases)):
        if len(vec) != d:
            raise InputValidationError(f"{name} has dimension {len(vec)}, directions have {d}")
    if all(x == 0 for x in w):
        raise ConstraintError("line direction must be nonzero")
    for idx, dirn in enumerate(params.directions):
        if sum(a * b for a, b in zip(dirn.vector, w)) == 0:
            raise ConstraintError(
                f"line is perpendicular to direction {idx}: the level sets of that "
                "direction contain whole line segments"
            )
    gap = tuple(b - a for a, b in zip(*bases))
    if all(x == 0 for x in gap) or _parallel(w, gap):
        raise ConstraintError("the two base points lie on one line; the lines coincide")
    ts = _parameters(params.samples_per_line, params.start, params.step)
    return tuple(params.directions), [tuple(b + t * c for b, c in zip(base, w)) for base in bases for t in ts]


def triangle_wave(x: Fraction) -> Fraction:
    """Piecewise-linear wave with slopes +-1, peaks (1+4k, 1), valleys (3+4k, -1)."""
    u = x - 4 * floor(x / 4)
    if u <= 1:
        return u
    if u <= 3:
        return 2 - u
    return u - 4


def _build_zigzag(params: ZigzagParams) -> Sample:
    coords = [(x, triangle_wave(x)) for x in _parameters(params.count, params.start, params.step)]
    return (direction((1, 1)), direction((1, -1))), coords


def _build_staircase(params: StaircaseParams) -> Sample:
    directions = tuple(params.directions)
    d = _dimension(directions)
    r = len(directions)
    matrix = RationalMatrix(r, d, [x for dirn in directions for x in dirn.vector])
    coords: list[tuple[Fraction, ...]] = [tuple([_ZERO] * d)]
    for k in range(r):
        rhs = [_ONE if i == k else _ZERO for i in range(r)]
        outcome = solve(matrix, rhs)
        if outcome.solution is None:
            raise ConstraintError(
                f"directions are linearly dependent: no point can leave the level of "
                f"direction {k} while staying on all the others"
            )
        coords.append(outcome.solution)
    return directions, coords


def _validate_staircase_chain(instance: RidgeInstance) -> None:
    """Check the defining chain: for each k, every point except the (k+1)-th
    shares the a_k value, and the (k+1)-th differs from it."""
    ids = instance.points.ids
    for k, table in enumerate(instance.family.tables):
        values = [table[pid] for pid in ids]
        others = [v for idx, v in enumerate(values) if idx != k + 1]
        if len(set(others)) != 1:
            raise ConstraintError(f"chain broken: direction {k} separates points other than {k + 1}")
        if values[k + 1] == others[0]:
            raise ConstraintError(f"chain broken: point {k + 1} does not leave the level of direction {k}")


def _poly_eval(coeffs: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _build_transversal_curve(params: TransversalCurveParams) -> Sample:
    directions = tuple(params.directions)
    d = _dimension(directions)
    if len(params.coefficients) != d:
        raise ConstraintError(
            f"curve has {len(params.coefficients)} coordinate polynomials, directions have dimension {d}"
        )
    ts = _parameters(params.count, params.start, params.step)
    return directions, [tuple(_poly_eval(c, t) for c in params.coefficients) for t in ts]


def _validate_transversal_condition(instance: RidgeInstance) -> None:
    """For every observed level value c, some direction meets it at most once."""
    counts = [Counter(table.values()) for table in instance.family.tables]
    for c in sorted(set().union(*counts)):
        if all(count[c] > 1 for count in counts):
            raise ConstraintError(
                f"every direction meets level {c} in two or more sample points; "
                "the curve is not transversal on this sample"
            )
