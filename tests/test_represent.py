import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsuper import (
    ClosedPathCertificate,
    FunctionFamily,
    InputValidationError,
    abstract_points,
    build_incidence,
    coordinate_functions,
    coordinate_points,
    detect,
    enumerate_minimal,
    is_representable,
    make_witness,
    representable_by_orthogonality,
    rref,
)

from examples import broken_line, five_point_path, simplex_corners
from oracles import (
    dense_kernel,
    dense_product,
    dense_solve,
    random_instance,
    random_superposition,
    random_table,
    recombined,
)
from permissibility import verify_permissible_implication

F = Fraction


@pytest.fixture(scope="module")
def inc5():
    return build_incidence(*five_point_path())


def test_pathfree_instance_represents_anything():
    ps, ff = simplex_corners(3)
    inc = build_incidence(ps, ff)
    rng = random.Random(0)
    for _ in range(10):
        f = random_table(rng, ps.ids)
        result = is_representable(inc, f)
        assert result.representable
        assert recombined(ff, result.decomposition.tables, ps.ids) == f


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_constructed_superpositions_are_members(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    f = random_superposition(rng, ps, ff)
    result = is_representable(inc, f)
    assert result.representable
    assert recombined(ff, result.decomposition.tables, ps.ids) == f


def test_every_function_gets_a_g_table_on_any_point_set():
    # the tables are sized by the family, not by the classes: an empty point
    # set has no classes but still three functions
    empty = is_representable(build_incidence(abstract_points([]), FunctionFamily(({}, {}, {}))), {})
    assert empty.representable
    assert (empty.decomposition.tables, empty.decomposition.freedom) == (({}, {}, {}), 0)
    ff = FunctionFamily(({7: F(0)}, {7: F(1)}, {7: F(2)}))
    single = is_representable(build_incidence(abstract_points([7]), ff), {7: F(5)})
    assert len(single.decomposition.tables) == 3
    assert recombined(ff, single.decomposition.tables, [7]) == {7: F(5)}


def test_a_reused_incidence_answers_as_a_fresh_one():
    # membership hands the cached per-point rows to solve without a copy and
    # the exhaustive search reads them too: no call may change them, so every
    # answer on a reused incidence is the answer on a freshly built one
    rng = random.Random(20261020)
    non_members = 0
    for _ in range(80):
        ps, ff = random_instance(rng, max_points=9, max_functions=3, values=(0, 1, 2))
        inc = build_incidence(ps, ff)
        targets = (random_superposition(rng, ps, ff), random_table(rng, ps.ids))
        first = [is_representable(inc, f) for f in targets]
        circuits = enumerate_minimal(inc, len(ps), "exhaustive")
        again = [is_representable(inc, f) for f in targets]
        fresh = build_incidence(ps, ff)
        assert first == again == [is_representable(fresh, f) for f in targets]
        assert circuits == enumerate_minimal(fresh, len(ps), "exhaustive")
        assert inc._column_rows == fresh._column_rows and inc.matrix == fresh.matrix
        assert first[0].representable
        non_members += not first[1].representable
    assert non_members > 20


def test_witness_of_five_point_path_rejected(inc5):
    cert = detect(inc5)
    witness = make_witness(cert, (1, 2, 3, 4, 5))
    result = is_representable(inc5, witness.f0)
    assert not result.representable
    assert result.violation_value in (F(6), F(-6))
    assert abs(result.violation_value) == sum(abs(x) for x in result.violation.lam)


def test_make_witness_values(inc5):
    cert = detect(inc5)
    witness = make_witness(cert, (1, 2, 3, 4, 5))
    signs = {pid: (1 if lam > 0 else -1) for pid, lam in zip(cert.support, cert.lam)}
    assert witness.f0 == {pid: F(signs[pid]) for pid in (1, 2, 3, 4, 5)}
    assert witness.value == 6


def test_witness_value_of_normalized_certificate(inc5):
    found = detect(inc5)
    cert = ClosedPathCertificate(found.support, found.normalized_lambda(), True)
    witness = make_witness(cert, (1, 2, 3, 4, 5))
    assert witness.value == 1


def test_witness_of_two_point_path():
    from linsuper import FunctionFamily, abstract_points

    ps = abstract_points([1, 2])
    inc = build_incidence(ps, FunctionFamily(({1: F(0), 2: F(0)},)))
    cert = detect(inc)
    witness = make_witness(cert, ps)
    assert sorted(witness.f0.values()) == [F(-1), F(1)]
    assert witness.value == 2


def test_witness_is_zero_off_the_path(inc5):
    cert = detect(inc5)
    witness = make_witness(cert, (1, 2, 3, 4, 5, 6, 7))
    assert witness.f0[6] == 0 and witness.f0[7] == 0


@given(st.integers(0, 5_000))
@settings(max_examples=100, deadline=None)
def test_duality_of_solver_and_orthogonality(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    f = random_table(rng, ps.ids)
    assert is_representable(inc, f).representable == representable_by_orthogonality(inc, f)


@given(st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_detect_and_membership(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=7)
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    if cert is None:
        for _ in range(5):
            assert is_representable(inc, random_table(rng, ps.ids)).representable
    else:
        witness = make_witness(cert, ps)
        assert not is_representable(inc, witness.f0).representable


@given(st.integers(0, 5_000))
@settings(max_examples=40, deadline=None)
def test_membership_is_closed_under_linear_combinations(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=7)
    inc = build_incidence(ps, ff)
    f1 = random_superposition(rng, ps, ff)
    f2 = random_superposition(rng, ps, ff)
    a = F(rng.randint(-4, 4), rng.randint(1, 3))
    b = F(rng.randint(-4, 4), rng.randint(1, 3))
    combo = {pid: a * f1[pid] + b * f2[pid] for pid in ps.ids}
    assert is_representable(inc, combo).representable


@pytest.mark.parametrize("vertex_count", [1, 3, 5, 9, 15, 21, 25])
def test_broken_line_truncations_are_pathfree(vertex_count):
    ps, ff = broken_line(vertex_count)
    inc = build_incidence(ps, ff)
    assert detect(inc) is None
    rng = random.Random(vertex_count)
    f = random_table(rng, ps.ids)
    result = is_representable(inc, f)
    assert result.representable
    # the decomposition really is g1(x) + g2(y)
    g1, g2 = result.decomposition.tables
    for p in ps.points:
        assert g1[p.coords[0]] + g2[p.coords[1]] == f[p.id]


def test_freedom_dimension_is_classes_minus_rank(inc5):
    f = {pid: F(0) for pid in inc5.point_ids}
    result = is_representable(inc5, f)
    n_classes = inc5.matrix.rows
    matrix_rank = len(rref(inc5.matrix)[1])
    assert result.decomposition.freedom == n_classes - matrix_rank


def test_violation_is_a_kernel_vector(inc5):
    cert = detect(inc5)
    witness = make_witness(cert, (1, 2, 3, 4, 5))
    result = is_representable(inc5, witness.f0)
    table = result.violation.as_table()
    vec = [table.get(pid, F(0)) for pid in inc5.point_ids]
    assert all(x == 0 for x in dense_product(inc5.matrix, vec))


def test_missing_point_is_rejected(inc5):
    with pytest.raises(InputValidationError, match="misses a value"):
        is_representable(inc5, {1: F(0)})
    with pytest.raises(InputValidationError, match="unknown point ids"):
        is_representable(inc5, {pid: F(0) for pid in (1, 2, 3, 4, 5, 99)})


def test_permissible_implication_with_path(inc5):
    report = verify_permissible_implication(inc5, [])
    assert report.branch == "closed path exists"
    assert report.witness_rejected
    assert report.holds


def test_permissible_implication_pathfree():
    ps, ff = simplex_corners(3)
    inc = build_incidence(ps, ff)
    rng = random.Random(1)
    probes = [random_table(rng, ps.ids) for _ in range(50)]
    report = verify_permissible_implication(inc, probes)
    assert report.branch == "no closed paths"
    assert report.probes_total == 50
    assert report.probes_representable == 50
    assert report.holds


def test_permissible_implication_vacuous_probes():
    ps, ff = simplex_corners(2)
    inc = build_incidence(ps, ff)
    report = verify_permissible_implication(inc, [])
    assert report.branch == "no closed paths"
    assert report.holds


def test_violation_is_the_first_dense_kernel_vector_with_a_nonzero_value():
    # the membership fallback reads the kernel as integer pairs and stops at
    # the first vector whose functional does not vanish on f: the same
    # vector as the first such one of the reference elimination
    rng = random.Random(20240)
    violated = 0
    for _ in range(200):
        ps, ff = random_instance(rng, max_points=9, max_functions=3, values=(0, 1, 2))
        inc = build_incidence(ps, ff)
        f = random_table(rng, ps.ids)
        values = [f[pid] for pid in inc.point_ids]
        rows = [list(inc.matrix.row(i)) for i in range(inc.matrix.rows)]
        dots = [(vec, sum(x * y for x, y in zip(vec, values))) for vec in dense_kernel(rows, inc.n_points)]
        violators = [(vec, value) for vec, value in dots if value]
        result = is_representable(inc, f)
        assert result.representable == (not violators)
        assert representable_by_orthogonality(inc, f) == (not violators)
        if violators:
            violated += 1
            vec, value = violators[0]
            assert result.violation.support == tuple(pid for pid, x in zip(inc.point_ids, vec) if x)
            assert result.violation.lam == tuple(x for x in vec if x)
            assert result.violation_value == value
    assert violated > 100


def _grid(k):
    ps = coordinate_points([(F(x), F(y, 2)) for x in range(k) for y in range(k)])
    return ps, coordinate_functions(ps)


def _member_instances():
    rng = random.Random(20261019)
    for _ in range(60):
        ps, ff = random_instance(rng, max_points=9, max_functions=3, values=(0, 1, 2, 3))
        yield ps, ff, random_superposition(rng, ps, ff)
    for k in (1, 2, 3, 5, 8):
        ps, ff = _grid(k)
        yield ps, ff, random_superposition(rng, ps, ff)
    for count in (1, 2, 7, 24, 60):
        ps, ff = broken_line(count)
        yield ps, ff, random_table(rng, ps.ids)  # a broken line is path-free


def test_member_decomposition_is_the_dense_solve_of_the_whole_transposed_system():
    # the pivot-point equations have the canonical g and the rank of all of
    # M^T g = f, which the dense reference solves with every point's equation
    for ps, ff, f in _member_instances():
        inc = build_incidence(ps, ff)
        rows = [list(inc.matrix.row(i)) for i in range(inc.matrix.rows)]
        transposed = [list(column) for column in zip(*rows)]
        solution, conflict, ref_rank = dense_solve(transposed, [f[pid] for pid in inc.point_ids], inc.matrix.rows)
        assert conflict is None
        result = is_representable(inc, f)
        assert result.representable
        tables = result.decomposition.tables
        assert [tables[cls.function_index][cls.value] for cls in inc.classes] == list(solution)
        assert sum(map(len, tables)) == len(inc.classes)
        assert result.decomposition.freedom == len(inc.classes) - ref_rank


def test_a_non_member_costs_one_elimination_of_the_incidence_matrix(monkeypatch):
    # one rref of M gives the pivot points and the kernel; the only other
    # elimination is the solve of the pivot-point equations, and no column
    # restriction of M is formed
    import linsuper.linalg
    import linsuper.represent
    from linsuper import IncidenceMatrix

    eliminated, solved = [], []
    rref, solve = linsuper.linalg.rref, linsuper.represent.solve

    def counting_rref(m):
        eliminated.append((m.rows, m.cols))
        return rref(m)

    def counting_solve(m, b):
        solved.append((m.rows, m.cols))
        return solve(m, b)

    def refused(*args):
        raise AssertionError("IncidenceMatrix.restricted was called")

    monkeypatch.setattr(linsuper.linalg, "rref", counting_rref)
    monkeypatch.setattr(linsuper.represent, "solve", counting_solve)
    monkeypatch.setattr(IncidenceMatrix, "restricted", refused)
    ps, ff = _grid(6)
    inc = build_incidence(ps, ff)
    f = random_superposition(random.Random(1), ps, ff)
    f[ps.ids[17]] += 1
    result = is_representable(inc, f)
    assert not result.representable and result.violation_value
    shape = (inc.matrix.rows, inc.n_points)
    rank = len(rref(inc.matrix)[1])
    assert solved == [(rank, inc.matrix.rows)]
    assert eliminated == [shape, (rank, inc.matrix.rows + 1)]
