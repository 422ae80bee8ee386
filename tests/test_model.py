import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsuper import (
    FunctionFamily,
    InputValidationError,
    Point,
    PointSet,
    abstract_points,
    build_incidence,
    build_level_classes,
    classify_ni,
    coordinate_points,
    detect,
    direction,
    enumerate_minimal,
    is_representable,
    kernel_basis,
    quantize_family,
    ridge_instance,
)

from examples import five_point_path
from oracles import dense_product, dense_transpose, random_instance, random_superposition, random_table

F = Fraction


def instances(seed):
    return random_instance(random.Random(seed), max_points=7)


def test_level_classes_of_five_point_path():
    ps, ff = five_point_path()
    classes = build_level_classes(ps, ff)
    first = [c for c in classes if c.function_index == 0]
    assert len(first) == 2
    by_value = {c.value: c.members for c in first}
    assert by_value == {F(0): frozenset({1, 2, 3}), F(1): frozenset({4, 5})}
    assert all(len([c for c in classes if c.function_index == i]) == 2 for i in range(3))


def test_single_point_single_class():
    ps = abstract_points([7])
    ff = FunctionFamily(({7: F(5)},))
    classes = build_level_classes(ps, ff)
    assert len(classes) == 1
    assert classes[0].members == frozenset({7})


def test_distinct_values_make_singletons():
    ps = abstract_points([1, 2, 3, 4])
    ff = FunctionFamily(({1: F(1), 2: F(2), 3: F(3), 4: F(4)},))
    classes = build_level_classes(ps, ff)
    assert len(classes) == 4
    assert all(len(c.members) == 1 for c in classes)


def test_missing_table_entry_names_indices():
    ps = abstract_points([1, 2])
    ff = FunctionFamily(({1: F(0)},))
    with pytest.raises(InputValidationError, match=r"function 0 .* point id 2"):
        build_level_classes(ps, ff)


def test_incidence_of_five_point_path():
    ps, ff = five_point_path()
    inc = build_incidence(ps, ff)
    assert inc.matrix.rows == 6 and inc.matrix.cols == 5
    basis = kernel_basis(inc.matrix)
    assert len(basis) == 1
    assert basis[0] in ((F(2), F(-1), F(-1), F(-1), F(1)),)


def test_single_point_two_functions():
    ps = abstract_points([1])
    ff = FunctionFamily(({1: F(0)}, {1: F(0)}))
    inc = build_incidence(ps, ff)
    assert inc.matrix.rows == 2 and inc.matrix.cols == 1
    assert kernel_basis(inc.matrix) == []


def test_two_identical_points():
    ps = abstract_points([1, 2])
    ff = FunctionFamily(({1: F(3), 2: F(3)},))
    inc = build_incidence(ps, ff)
    assert inc.matrix.rows == 1 and inc.matrix.cols == 2
    assert kernel_basis(inc.matrix) == [(F(1), F(-1))]


@given(st.integers(0, 10_000))
def test_counting_invariants(seed):
    ps, ff = instances(seed)
    inc = build_incidence(ps, ff)
    n, r = len(ps), ff.r
    for j in range(n):
        assert sum(inc.matrix.row(i)[j] for i in range(inc.matrix.rows)) == r
    for i, cls in enumerate(inc.classes):
        assert sum(inc.matrix.row(i)) == len(cls.members)
        assert sorted(cls.columns) == sorted(map(ps.ids.index, cls.members))
    assert sum(inc.matrix.entries) == r * n


@given(st.integers(0, 10_000))
def test_level_class_members_are_the_ids_at_its_columns(seed):
    # the columns are the one storage; the member ids are read off them, and
    # equality and hashing go by (function index, value, members)
    ps, ff = instances(seed)
    first, second = build_incidence(ps, ff), build_incidence(ps, ff)
    for cls in first.classes:
        assert cls.members == frozenset(ps.ids[j] for j in cls.columns)
    assert first.classes == second.classes and first == second
    assert set(first.classes) == set(second.classes)
    assert len(set(first.classes + second.classes)) == len(first.classes)


def test_level_classes_of_equal_tables_differ_by_function_index():
    ps = abstract_points([1, 2])
    first, second = build_level_classes(ps, FunctionFamily(({1: F(0), 2: F(0)},) * 2))
    assert (first.value, first.members) == (second.value, second.members)
    assert first != second and len({first, second}) == 2


@given(st.integers(0, 10_000))
def test_matrix_and_per_point_rows_are_views_of_the_classes(seed):
    # the classes' column lists are the one storage: the rows of M carry their
    # ones, and each point's cached rows are its row of M^T
    ps, ff = instances(seed)
    inc = build_incidence(ps, ff)
    assert (inc.classes, inc.point_ids, inc.r) == (build_level_classes(ps, ff), ps.ids, ff.r)
    assert [{j for j, x in enumerate(inc.matrix.row(k)) if x} for k in range(inc.matrix.rows)] == [
        set(cls.columns) for cls in inc.classes
    ]
    assert (inc.matrix.rows, inc.matrix.cols) == (len(inc.classes), len(ps))
    transposed = dense_transpose(inc.matrix)
    assert inc._column_rows == [{k: 1 for k, x in enumerate(transposed.row(j)) if x} for j in range(len(ps))]


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_point_permutation_permutes_columns_and_kernel(seed, perm_seed):
    ps, ff = instances(seed)
    inc = build_incidence(ps, ff)
    order = list(range(len(ps)))
    random.Random(perm_seed).shuffle(order)
    shuffled = PointSet(tuple(ps.points[k] for k in order))
    inc2 = build_incidence(shuffled, ff)
    kernel1 = kernel_basis(inc.matrix)
    kernel2 = kernel_basis(inc2.matrix)
    assert len(kernel1) == len(kernel2)
    # the two kernels agree once coordinates are re-aligned by point id
    for vec in kernel2:
        realigned = tuple(vec[shuffled.ids.index(pid)] for pid in ps.ids)
        assert all(x == 0 for x in dense_product(inc.matrix, realigned))
    for vec in kernel1:
        realigned = tuple(vec[ps.ids.index(pid)] for pid in shuffled.ids)
        assert all(x == 0 for x in dense_product(inc2.matrix, realigned))


@given(st.integers(0, 10_000))
def test_value_relabeling_leaves_matrix_rows_unchanged(seed):
    ps, ff = instances(seed)
    inc = build_incidence(ps, ff)
    # injective relabeling of the first function's values
    relabel = {F(0): F(17), F(1): F(-3), F(2): F(1, 7)}
    tables = ({pid: relabel[v] for pid, v in ff.tables[0].items()},) + ff.tables[1:]
    inc2 = build_incidence(ps, FunctionFamily(tables))
    rows1 = sorted(inc.matrix.row(i) for i in range(inc.matrix.rows))
    rows2 = sorted(inc2.matrix.row(i) for i in range(inc2.matrix.rows))
    assert rows1 == rows2


def _permute_functions(ff, rng):
    order = list(range(ff.r))
    rng.shuffle(order)
    return FunctionFamily(tuple(ff.tables[k] for k in order))


def _duplicate_function(ff, rng):
    return FunctionFamily(ff.tables + (dict(ff.tables[rng.randrange(ff.r)]),))


def _append_constant(ff, rng):
    return FunctionFamily(ff.tables + (dict.fromkeys(ff.tables[0], F(rng.randint(-3, 3))),))


def _answers(ps, ff, targets):
    """The detect certificate, the exhaustive circuits and the verdicts on the targets."""
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    circuits = enumerate_minimal(inc, len(ps), "exhaustive")
    verdicts = []
    for f in targets:
        res = is_representable(inc, f)
        violation = res.violation and (res.violation.support, res.violation.lam)
        verdicts.append((res.representable, violation, res.violation_value))
    return cert and (cert.support, cert.lam), [(c.support, c.lam) for c in circuits], verdicts


@pytest.mark.parametrize("transform", [_permute_functions, _duplicate_function, _append_constant])
@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(deadline=None)
def test_family_changes_that_keep_the_kernel_keep_every_answer(transform, seed, draw_seed):
    # each change keeps the kernel of the incidence matrix, hence every
    # canonical kernel vector: the answers must be the same, exactly
    ps, ff = instances(seed)
    rng = random.Random(draw_seed)
    targets = [random_table(rng, ps.ids), random_superposition(rng, ps, ff)]
    assert _answers(ps, transform(ff, rng), targets) == _answers(ps, ff, targets)


@given(
    st.integers(0, 10_000),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool), min_size=3, max_size=3),
)
@settings(deadline=None)
def test_scaling_ridge_directions_keeps_every_answer(seed, factors):
    # c a . x takes equal values exactly where a . x does, so the level
    # classes stay (a negative c reverses their order, which only permutes
    # the rows): every canonical kernel vector, hence every answer, stays
    rng = random.Random(seed)
    d, r = rng.choice((2, 3)), rng.randint(1, 3)
    grid = [tuple(F(rng.randint(0, 2)) for _ in range(d)) for _ in range(12)]
    points = coordinate_points(list(dict.fromkeys(grid))[:7])
    vectors = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d)] for _ in range(r)]
    vectors = [v if any(v) else [F(1)] * d for v in vectors]
    base = ridge_instance([direction(v) for v in vectors], points)
    scaled = ridge_instance([direction([c * x for x in v]) for v, c in zip(vectors, factors)], points)

    def classes(instance):
        return {(c.function_index, c.members) for c in build_level_classes(points, instance.family)}

    assert classes(scaled) == classes(base)
    targets = [random_table(rng, points.ids), random_superposition(rng, points, base.family)]
    assert _answers(points, scaled.family, targets) == _answers(points, base.family, targets)
    assert classify_ni(scaled) == classify_ni(base)


def test_point_set_rejects_duplicate_ids():
    with pytest.raises(InputValidationError, match="duplicate"):
        PointSet((Point(1), Point(1)))


def test_point_set_rejects_mixed_dimensions():
    with pytest.raises(InputValidationError, match="mixed"):
        PointSet((Point(1, (F(0),)), Point(2, (F(0), F(1)))))


def test_quantize_merges_and_reports():
    ff = FunctionFamily(({1: F(1, 3), 2: F("0.3333333333"), 3: F(2)},))
    merged, merges = quantize_family(ff, F(1, 10**6))
    assert len(merges) == 1
    assert merges[0].function_index == 0
    assert merged.tables[0][1] == merged.tables[0][2]
    assert merged.tables[0][3] == F(2)
    # exact equality semantics are untouched without the explicit pass
    untouched, no_merges = quantize_family(ff, F(0))
    assert no_merges == ()
    assert untouched.tables[0] == ff.tables[0]


def test_quantize_rejects_negative_eps():
    ff = FunctionFamily(({1: F(0)},))
    with pytest.raises(InputValidationError):
        quantize_family(ff, F(-1))


def fraction_keyed_classes(ps, ff):
    """Level classes grouped by the Fraction values themselves."""
    classes = []
    for i, table in enumerate(ff.tables):
        by_value = {}
        for p in ps.points:
            by_value.setdefault(table[p.id], set()).add(p.id)
        classes.extend((i, value, frozenset(by_value[value])) for value in sorted(by_value))
    return classes


# equal values in several forms: 1, Fraction(1) and Fraction(2, 2) are one value
mixed_values = st.sampled_from([1, F(1), F(2, 2), 0, F(0), -1, F(-3, 3), F(1, 2), F(2, 4), F(-7, 3), 2])


@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(mixed_values, min_size=n, max_size=n), min_size=1, max_size=3
)))
def test_level_classes_group_equal_values_of_any_form(tables):
    ps = abstract_points(list(range(1, len(tables[0]) + 1)))
    ff = FunctionFamily(tuple(dict(zip(ps.ids, values)) for values in tables))
    classes = build_level_classes(ps, ff)
    assert [(c.function_index, c.value, c.members) for c in classes] == fraction_keyed_classes(ps, ff)
