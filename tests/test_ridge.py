import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from linsuper import (
    ConstraintError,
    ParallelLinesParams,
    StaircaseParams,
    TransversalCurveParams,
    ZigzagParams,
    build_incidence,
    classify_ni,
    coordinate_points,
    detect,
    direction,
    generate_pathfree_example,
    hypercube_path,
    is_closed_path,
    is_representable,
    make_witness,
    ridge_instance,
    triangle_wave,
    verify_certificate,
)
from linsuper.ridge import HYPERCUBE_DIRECTION_LIMIT, _separating_powers

from oracles import dense_product, dense_transpose, hypercube_reference, integer_rows, oracle_minimal_paths

F = Fraction


def grid_instance():
    points = coordinate_points([(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))])
    return ridge_instance([direction((1, 0)), direction((0, 1))], points)


def test_classify_grid_is_mni():
    verdict = classify_ni(grid_instance())
    assert verdict.kind == "MNI"
    assert verdict.m in ((F(1), F(-1), F(-1), F(1)),)
    assert all(x != 0 for x in verdict.m)


def test_classify_staircase_is_interpolable():
    points = coordinate_points(
        [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    )
    dirs = [direction((1, 0, 0)), direction((0, 1, 0)), direction((0, 0, 1))]
    verdict = classify_ni(ridge_instance(dirs, points))
    assert verdict.kind == "interpolable"


def test_classify_mni_plus_far_point_is_ni():
    points = coordinate_points(
        [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)), (F(17), F(23))]
    )
    verdict = classify_ni(ridge_instance([direction((1, 0)), direction((0, 1))], points))
    assert verdict.kind == "NI"
    # the integer relation is supported on the grid, zero on the far point
    assert verdict.m[4] == 0
    assert sorted(verdict.m[:4]) == [F(-1), F(-1), F(1), F(1)]


def test_classify_empty_instance_is_interpolable():
    from linsuper import PointSet

    verdict = classify_ni(ridge_instance([direction((1, 0))], PointSet(())))
    assert verdict.kind == "interpolable"


def test_classify_ni_agrees_with_the_oracle():
    # grids of at most 3x3 against two or three of four plane directions keep
    # the brute-force oracle cheap and make all three verdicts occur
    rng = random.Random(20150121)
    planes = [(1, 0), (0, 1), (1, 1), (1, -1)]
    seen = set()
    for _ in range(300):
        grid = [(x, y) for x in range(rng.randint(2, 3)) for y in range(rng.randint(2, 3))]
        coords = rng.sample(grid, rng.randint(4, min(8, len(grid))))
        dirs = rng.sample(planes, 2 + (rng.random() < 0.25))
        instance = ridge_instance(
            [direction(d) for d in dirs], coordinate_points([(F(x), F(y)) for x, y in coords])
        )
        inc = build_incidence(instance.points, instance.family)
        verdict = classify_ni(instance)
        minimal = oracle_minimal_paths(inc)
        assert (verdict.kind == "interpolable") == (not minimal)
        assert (verdict.kind == "MNI") == (minimal == {frozenset(inc.point_ids)})
        if verdict.m is not None:
            assert any(verdict.m)
            for row in integer_rows(inc):
                assert sum(a * x for a, x in zip(row, verdict.m)) == 0
        seen.add(verdict.kind)
    assert seen == {"interpolable", "NI", "MNI"}


def test_hypercube_square_from_diagonals():
    path = hypercube_path([direction((1, 1)), direction((1, -1))], (0, 0), 1)
    assert path.lam == (F(1), F(-1), F(-1), F(1))
    inc = build_incidence(path.instance.points, path.instance.family)
    assert all(x == 0 for x in dense_product(inc.matrix, path.lam))


def test_hypercube_single_direction_two_points():
    path = hypercube_path([direction((2, 3))], (5, 7), 1)
    assert len(path.instance.points) == 2
    assert path.lam == (F(1), F(-1))
    a = (F(2), F(3))
    values = [
        sum(c * x for c, x in zip(a, p.coords)) for p in path.instance.points.points
    ]
    assert values[0] == values[1]


def test_hypercube_three_directions_in_plane():
    dirs = [direction((1, 0)), direction((0, 1)), direction((1, 1))]
    path = hypercube_path(dirs, (0, 0), F(1, 8))
    assert len(path.instance.points) == 8
    inc = build_incidence(path.instance.points, path.instance.family)
    assert is_closed_path(inc, inc.point_ids) is not None
    assert sum(path.lam) == 0


def test_hypercube_verifies_offsets_orthogonal():
    dirs = [direction((3, 5, -2)), direction((1, 1, 1)), direction((0, 2, 7))]
    path = hypercube_path(dirs, (1, 2, 3), F(1, 3))
    for dirn, offset in zip(dirs, path.offsets):
        assert sum(a * b for a, b in zip(dirn.vector, offset)) == 0


def test_hypercube_rejects_dimension_one():
    with pytest.raises(ConstraintError):
        hypercube_path([direction((1,))], (0,), 1)


def test_hypercube_rejects_parallel_plane_directions():
    with pytest.raises(ConstraintError):
        hypercube_path([direction((1, 1)), direction((2, 2))], (0, 0), 1)


PLANE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1), (2, 1), (1, 3)]
SPACE_DIRECTIONS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)]


@pytest.mark.parametrize("vectors, center, scale", [
    (PLANE_DIRECTIONS, (F(1, 2), -3), F(1, 5)),
    (SPACE_DIRECTIONS, (2, F(-7, 3), 0, F(1, 4)), F(-3, 2)),
], ids=["plane", "R4"])
@pytest.mark.parametrize("r", range(1, 8))
def test_hypercube_points_and_signs_follow_the_sign_patterns(vectors, center, scale, r):
    path = hypercube_path([direction(v) for v in vectors[:r]], center, scale)
    points, signs = hypercube_reference(path.center, path.offsets)
    assert [p.coords for p in path.instance.points.points] == points
    assert [int(x) for x in path.lam] == signs
    assert path.epsilons == tuple(product((0, 1), repeat=r))


def test_hypercube_separates_points_when_every_prime_window_collides():
    # with 13 directions (1, k) the 2^13 subset sums collide under every window
    # of primes; the power scaling separates them by construction
    path = hypercube_path([direction((1, k)) for k in range(1, 14)], (0, 0), 1)
    coords = [p.coords for p in path.instance.points.points]
    assert len(coords) == len(set(coords)) == 2**13
    verify_certificate(build_incidence(path.instance.points, path.instance.family), path.certificate())


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.integers(1, 6), st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)),
    min_size=1, max_size=7,
)))
def test_separating_powers_keep_every_sign_pattern_apart(base):
    # offsets c_i / D_i scaled by B^i: no two subset sums coincide, even for
    # parallel or repeated offsets
    factors = _separating_powers(base)
    offsets = [[F(f * c, den) for c in vec] for f, (den, vec) in zip(factors, base)]
    points, _ = hypercube_reference([F(0)] * len(base[0][1]), offsets)
    assert len(set(points)) == 2 ** len(base)


def test_hypercube_over_the_direction_limit_fails_before_building_points(monkeypatch):
    import linsuper.ridge

    def no_offsets(*args):
        raise AssertionError("offsets were chosen over the limit")

    monkeypatch.setattr(linsuper.ridge, "_offset_candidates", no_offsets)
    dirs = [direction((1, k, 0, 1)) for k in range(HYPERCUBE_DIRECTION_LIMIT + 1)]
    with pytest.raises(ConstraintError, match=f"limit of {HYPERCUBE_DIRECTION_LIMIT} directions"):
        hypercube_path(dirs, (0, 0, 0, 0), 1)


def test_hypercube_interior_points_defeat_representability():
    # small enough offsets keep all points inside the box around the center,
    # and the witness of the path is never representable
    rng = random.Random(3)
    for _ in range(10):
        d = rng.choice((2, 3))
        r = rng.randint(1, 3)
        dirs = []
        while len(dirs) < r:
            vec = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(vec):
                dirs.append(direction(vec))
        center = tuple(F(rng.randint(-5, 5)) for _ in range(d))
        box = F(1, 100)
        try:
            path = hypercube_path(dirs, center, F(1, 10**4))
        except ConstraintError:
            continue  # parallel plane directions: no pairwise independent offsets
        for p in path.instance.points.points:
            assert all(abs(c - y) < box for c, y in zip(p.coords, center))
        inc = build_incidence(path.instance.points, path.instance.family)
        witness = make_witness(path.certificate(), path.instance.points)
        assert not is_representable(inc, witness.f0).representable


# Hypercube paths with fractional inputs, pinned exactly: offsets (the u + t*v
# candidates depend on the direction itself, not just on its ray), points in
# construction order, and the signs of lam. Cases: one fractional direction
# three times; zero components mixing coordinate and swap-negate candidates;
# a fractional center and scale in R^2; repeated directions in R^4.
HYPERCUBE_PINS = [
    (
        [(F(1, 2), F(1, 3), 1)] * 3,
        (0, 0, 0),
        1,
        ["2/3 -1 0", "3 0 -3/2", "20/3 -5/2 -5/2"],
        "0 0 0, 20/3 -5/2 -5/2, 3 0 -3/2, 29/3 -5/2 -4, 2/3 -1 0, 22/3 -7/2 -5/2, 11/3 -1 -3/2, "
        "31/3 -7/2 -4",
        "+--+-++-",
    ),
    (
        [(0, F(1, 2), F(3, 4)), (F(2, 3), 0, 0), (1, F(-1, 5), 0), (F(1, 2), F(1, 3), 1)],
        (F(1, 3), F(-2, 7), F(5, 4)),
        F(3, 5),
        ["6/5 0 0", "0 9/5 0", "0 0 3", "7/5 -21/10 0"],
        "1/3 -2/7 5/4, 26/15 -167/70 5/4, 1/3 -2/7 17/4, 26/15 -167/70 17/4, 1/3 53/35 5/4, "
        "26/15 -41/70 5/4, 1/3 53/35 17/4, 26/15 -41/70 17/4, 23/15 -2/7 5/4, 44/15 -167/70 5/4, "
        "23/15 -2/7 17/4, 44/15 -167/70 17/4, 23/15 53/35 5/4, 44/15 -41/70 5/4, 23/15 53/35 17/4, "
        "44/15 -41/70 17/4",
        "+--+-++--++-+--+",
    ),
    (
        [(F(1, 2), F(1, 3)), (F(2, 5), F(-3, 4)), (0, F(7, 3))],
        (F(-1, 2), F(2, 3)),
        F(5, 6),
        ["5/9 -5/6", "-15/8 -1", "25/6 0"],
        "-1/2 2/3, 11/3 2/3, -19/8 -1/3, 43/24 -1/3, 1/18 -1/6, 38/9 -1/6, -131/72 -7/6, "
        "169/72 -7/6",
        "+--+-++-",
    ),
    (
        [(F(1, 2), F(1, 3), F(-1, 4), 2)] * 3 + [(0, F(1, 7), F(2, 9), F(-5, 3))],
        (F(1, 2), F(1, 3), F(1, 4), F(1, 5)),
        F(-2, 3),
        ["-4/9 2/3 0 0", "1/2 0 1 0", "-5/18 5/3 5/3 0", "-14/3 0 0 0"],
        "1/2 1/3 1/4 1/5, -25/6 1/3 1/4 1/5, 2/9 2 23/12 1/5, -40/9 2 23/12 1/5, 1 1/3 5/4 1/5, "
        "-11/3 1/3 5/4 1/5, 13/18 2 35/12 1/5, -71/18 2 35/12 1/5, 1/18 1 1/4 1/5, "
        "-83/18 1 1/4 1/5, -2/9 8/3 23/12 1/5, -44/9 8/3 23/12 1/5, 5/9 1 5/4 1/5, "
        "-37/9 1 5/4 1/5, 5/18 8/3 35/12 1/5, -79/18 8/3 35/12 1/5",
        "+--+-++--++-+--+",
    ),
]


@pytest.mark.parametrize(
    "dirs, center, scale, offsets, points, signs", HYPERCUBE_PINS, ids=["repeated", "zeros", "plane", "space"]
)
def test_hypercube_fractional_inputs_are_pinned(dirs, center, scale, offsets, points, signs):
    def vec(text):
        return tuple(map(F, text.split()))

    path = hypercube_path([direction(d) for d in dirs], center, scale)
    assert path.center == tuple(map(F, center))
    assert path.offsets == tuple(map(vec, offsets))
    assert tuple(p.coords for p in path.instance.points.points) == tuple(map(vec, points.split(", ")))
    assert path.lam == tuple(F(1) if s == "+" else F(-1) for s in signs)


def test_ridge_values_match_reversed_accumulation():
    rng = random.Random(11)
    d = 4
    dirs = [direction(tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))) for _ in range(3)]
    points = coordinate_points(
        [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)) for _ in range(6)]
    )
    instance = ridge_instance(dirs, points)
    for i, dirn in enumerate(dirs):
        for p in points.points:
            backwards = F(0)
            for a, x in zip(reversed(dirn.vector), reversed(p.coords)):
                backwards += a * x
            assert instance.family.tables[i][p.id] == backwards


def test_classification_invariant_under_direction_scaling():
    base = grid_instance()
    scaled = ridge_instance(
        [direction((F(7, 3), 0)), direction((0, F(-5)))], base.points
    )
    assert classify_ni(scaled).kind == classify_ni(base).kind == "MNI"


def _random_unimodular(rng, d):
    # product of elementary integer shears: determinant +-1 by construction
    m = [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = F(rng.randint(-2, 2))
        for k in range(d):
            m[i][k] += c * m[j][k]
    return m


def test_classification_invariant_under_affine_change():
    rng = random.Random(7)
    base = grid_instance()
    d = 2
    for _ in range(10):
        m = _random_unimodular(rng, d)
        shift = tuple(F(rng.randint(-3, 3)) for _ in range(d))
        # transform points by x -> m x + shift
        new_points = coordinate_points(
            [
                tuple(
                    sum(m[i][k] * p.coords[k] for k in range(d)) + shift[i]
                    for i in range(d)
                )
                for p in base.points.points
            ]
        )
        # directions transform contragradiently: solve m^T a' = a so that
        # a' . (m x) = a . x for every x
        from linsuper import RationalMatrix, solve

        mm = RationalMatrix(d, d, [x for row in m for x in row])
        new_dirs = []
        for dirn in base.directions:
            outcome = solve(dense_transpose(mm), list(dirn.vector))
            assert outcome.solution is not None
            new_dirs.append(direction(outcome.solution))
        verdict = classify_ni(ridge_instance(new_dirs, new_points))
        assert verdict.kind == "MNI"
        assert tuple(abs(x) for x in verdict.m) == (F(1), F(1), F(1), F(1))


def test_parallel_lines_default_is_pathfree():
    params = ParallelLinesParams(
        directions=(direction((1, 0)), direction((0, 1))),
        line_direction=(F(1), F(1)),
        base_first=(F(0), F(0)),
        base_second=(F(0), F(1)),
        samples_per_line=6,
    )
    example = generate_pathfree_example("parallel-lines", params)
    assert len(example.instance.points) == 12
    assert detect(build_incidence(example.instance.points, example.instance.family)) is None


def test_parallel_lines_rejects_perpendicular_line():
    params = ParallelLinesParams(
        directions=(direction((1, 0)), direction((0, 1))),
        line_direction=(F(0), F(1)),  # vertical: perpendicular level sets of x
        base_first=(F(0), F(0)),
        base_second=(F(1), F(0)),
    )
    with pytest.raises(ConstraintError, match="perpendicular to direction 0"):
        generate_pathfree_example("parallel-lines", params)


def test_parallel_lines_rejects_coincident_lines():
    params = ParallelLinesParams(
        directions=(direction((1, 0)), direction((0, 1))),
        line_direction=(F(1), F(1)),
        base_first=(F(0), F(0)),
        base_second=(F(2), F(2)),
    )
    with pytest.raises(ConstraintError, match="coincide"):
        generate_pathfree_example("parallel-lines", params)


def test_triangle_wave_shape():
    assert triangle_wave(F(0)) == 0
    assert triangle_wave(F(1)) == 1
    assert triangle_wave(F(3)) == -1
    assert triangle_wave(F(5)) == 1
    assert triangle_wave(F(1, 2)) == F(1, 2)
    assert triangle_wave(F(3, 2)) == F(1, 2)
    assert triangle_wave(F(-1, 2)) == F(-1, 2)
    # slope is +-1 everywhere
    step = F(1, 8)
    x = F(-4)
    while x < 4:
        delta = triangle_wave(x + step) - triangle_wave(x)
        assert abs(delta) == step
        x += step


def test_zigzag_sample_is_pathfree():
    example = generate_pathfree_example("zigzag", ZigzagParams(count=24, step=F(1, 2)))
    assert len(example.instance.points) == 24
    assert detect(build_incidence(example.instance.points, example.instance.family)) is None


def test_zigzag_empty_sample():
    example = generate_pathfree_example("zigzag", ZigzagParams(count=0))
    assert len(example.instance.points) == 0
    assert classify_ni(example.instance).kind == "interpolable"


def test_staircase_basis_directions_gives_simplex_corners():
    dirs = tuple(direction([1 if i == k else 0 for i in range(3)]) for k in range(3))
    example = generate_pathfree_example("staircase", StaircaseParams(dirs))
    coords = [p.coords for p in example.instance.points.points]
    assert coords == [
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]
    assert example.note.endswith("whole configuration")


def test_staircase_generic_directions():
    dirs = (direction((1, 2, 0)), direction((0, 1, 1)), direction((1, 0, 1)))
    example = generate_pathfree_example("staircase", StaircaseParams(dirs))
    assert len(example.instance.points) == 4
    assert detect(build_incidence(example.instance.points, example.instance.family)) is None


def test_staircase_rejects_dependent_directions():
    dirs = (direction((1, 0)), direction((0, 1)), direction((1, 1)))
    with pytest.raises(ConstraintError, match="dependent"):
        generate_pathfree_example("staircase", StaircaseParams(dirs))


def test_transversal_line_is_pathfree():
    params = TransversalCurveParams(
        directions=(direction((1, 0)), direction((0, 1))),
        coefficients=((F(0), F(1)), (F(1), F(2))),  # gamma(t) = (t, 1 + 2t)
        count=9,
    )
    example = generate_pathfree_example("transversal-curve", params)
    assert detect(build_incidence(example.instance.points, example.instance.family)) is None
    assert "sample only" in example.note


def test_transversal_rejects_untransversal_sample():
    # parabola gamma(t) = (t^2, t) against the diagonals: both direction
    # levels through the origin pick up two sample points each
    params = TransversalCurveParams(
        directions=(direction((1, 1)), direction((1, -1))),
        coefficients=((F(0), F(0), F(1)), (F(0), F(1))),
        count=3,
        start=F(-1),
    )
    with pytest.raises(ConstraintError, match="not transversal"):
        generate_pathfree_example("transversal-curve", params)


def test_transversal_rejects_colliding_samples():
    params = TransversalCurveParams(
        directions=(direction((1, 0)), direction((0, 1))),
        coefficients=((F(0), F(0), F(1)), (F(0), F(0), F(1))),
        count=3,
        start=F(-1),
    )
    with pytest.raises(ConstraintError, match="collide"):
        generate_pathfree_example("transversal-curve", params)


def test_generate_rejects_unknown_kind():
    from linsuper import InputValidationError

    with pytest.raises(InputValidationError):
        generate_pathfree_example("spiral", ZigzagParams())


ridge_components = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(ridge_components, min_size=d, max_size=d).filter(any), min_size=1, max_size=3),
    st.lists(st.lists(ridge_components, min_size=d, max_size=d), max_size=6),
)))
def test_ridge_values_equal_dot_products(drawn):
    vectors, coords = drawn
    points = coordinate_points([tuple(c) for c in coords])
    instance = ridge_instance([direction(v) for v in vectors], points)
    for vector, table in zip(vectors, instance.family.tables):
        assert set(table) == set(points.ids)
        for p in points.points:
            assert table[p.id] == sum(a * b for a, b in zip(vector, p.coords))
            assert type(table[p.id]) is Fraction


cube_components = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(3, 4), F(-5, 7), F(7, 5)])


@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(cube_components, min_size=d, max_size=d).filter(any), min_size=1, max_size=4),
    st.lists(cube_components, min_size=d, max_size=d),
    cube_components.filter(bool),
)))
def test_hypercube_instance_is_the_ridge_instance_of_its_points(drawn):
    # hypercube_path tabulates its integer coordinates without going through
    # ridge_instance; the tables must be the same
    vectors, center, scale = drawn
    dirs = [direction(v) for v in vectors]
    try:
        path = hypercube_path(dirs, center, scale)
    except ConstraintError:
        assume(False)  # parallel plane directions leave a single orthogonal line
    expected = ridge_instance(dirs, path.instance.points)
    assert path.instance.family.tables == expected.family.tables
    assert path.instance == expected
