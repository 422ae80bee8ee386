import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linsuper import (
    ClosedPathCertificate,
    ContractViolationError,
    FunctionFamily,
    IncidenceMatrix,
    InputValidationError,
    abstract_points,
    build_incidence,
    certificate_from_kernel_vector,
    coordinate_functions,
    coordinate_points,
    certify_minimal,
    decompose_functional,
    detect,
    enumerate_minimal,
    evaluate_certificate,
    find_minimal_within,
    integer_primitive,
    is_closed_path,
    kernel_basis,
    verify_certificate,
)

from examples import five_point_path, simplex_corners, six_point_path, unit_grid
from oracles import (
    class_graph_cycles,
    class_graph_nullity,
    dense_kernel,
    dense_product,
    oracle_is_closed,
    oracle_minimal_paths,
    oracle_parts,
    integer_rows,
    random_instance,
    random_superposition,
    random_table,
    unit_l1,
)

F = Fraction


@pytest.fixture(scope="module")
def inc5():
    return build_incidence(*five_point_path())

@pytest.fixture(scope="module")
def inc6():
    return build_incidence(*six_point_path())


def test_detect_five_point_path(inc5):
    cert = detect(inc5)
    assert cert.support == (1, 2, 3, 4, 5)
    assert cert.integer_lambda() in ((F(2), F(-1), F(-1), F(-1), F(1)),)
    verify_certificate(inc5, cert)


def test_detect_simplex_none():
    inc = build_incidence(*simplex_corners(3))
    assert detect(inc) is None


def test_detect_single_point_none():
    ps = abstract_points([1])
    inc = build_incidence(ps, FunctionFamily(({1: F(0)},)))
    assert detect(inc) is None


def test_is_closed_path_six_points(inc6):
    vec = is_closed_path(inc6, inc6.point_ids)
    assert vec is not None
    assert all(x != 0 for x in vec)
    assert all(x == 0 for x in dense_product(inc6.matrix, vec))
    # the known six-point coefficient vector satisfies the same equations
    known = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    assert all(x == 0 for x in dense_product(inc6.matrix, known))


def test_is_closed_path_two_identical_points():
    ps = abstract_points([4, 9])
    inc = build_incidence(ps, FunctionFamily(({4: F(1), 9: F(1)},)))
    assert is_closed_path(inc, (4, 9)) == (F(1), F(-1))


def test_is_closed_path_three_shared_values():
    ps = abstract_points([1, 2, 3])
    inc = build_incidence(ps, FunctionFamily(({1: F(5), 2: F(5), 3: F(5)},)))
    vec = is_closed_path(inc, (1, 2, 3))
    assert vec is not None
    assert all(x != 0 for x in vec)
    assert sum(vec) == 0


def test_is_closed_path_rejects_unknown_id(inc5):
    with pytest.raises(InputValidationError, match="unknown point id"):
        is_closed_path(inc5, (1, 99))


def test_certify_minimal_five_point_path(inc5):
    result = certify_minimal(inc5, (1, 2, 3, 4, 5))
    assert result.is_minimal
    lam = result.certificate.lam
    expected = (F(-1, 3), F(1, 6), F(1, 6), F(1, 6), F(-1, 6))
    assert lam == expected or lam == tuple(-x for x in expected)
    assert result.certificate.normalized and result.certificate.minimal


def test_certify_minimal_six_point_counterexample(inc6):
    result = certify_minimal(inc6, inc6.point_ids)
    assert not result.is_minimal
    assert result.counterexample == (1, 2, 3, 4, 5)


def test_certify_minimal_two_identical_points():
    ps = abstract_points([1, 2])
    inc = build_incidence(ps, FunctionFamily(({1: F(0), 2: F(0)},)))
    result = certify_minimal(inc, (1, 2))
    assert result.is_minimal
    assert result.certificate.lam == (F(1, 2), F(-1, 2))


def test_certify_minimal_requires_closed_path():
    inc = build_incidence(*simplex_corners(3))
    for shrink in (certify_minimal, find_minimal_within):
        with pytest.raises(ContractViolationError, match="not a closed path"):
            shrink(inc, inc.point_ids)


def test_enumerate_exhaustive_matches_oracle(inc6):
    certs = enumerate_minimal(inc6, 6, "exhaustive")
    supports = {frozenset(c.support) for c in certs}
    assert frozenset({1, 2, 3, 4, 5}) in supports
    assert supports == oracle_minimal_paths(inc6)
    for cert in certs:
        verify_certificate(inc6, cert)


def test_enumerate_simplex_empty():
    inc = build_incidence(*simplex_corners(3))
    assert enumerate_minimal(inc, 4, "exhaustive") == []
    assert enumerate_minimal(inc, mode="fundamental") == []


def test_enumerate_grid_single_square():
    inc = build_incidence(*unit_grid())
    certs = enumerate_minimal(inc, 4, "exhaustive")
    assert len(certs) == 1
    assert certs[0].support == (1, 2, 3, 4)
    assert integer_primitive(certs[0].lam) == (F(1), F(-1), F(-1), F(1))


def test_enumerate_rejects_bad_arguments(inc5):
    with pytest.raises(InputValidationError):
        enumerate_minimal(inc5, 1, "exhaustive")
    with pytest.raises(InputValidationError):
        enumerate_minimal(inc5, 5, "sideways")


@given(st.integers(0, 2_000))
@settings(max_examples=60, deadline=None)
def test_fundamental_mode_spans_kernel(seed):
    ps, ff = random_instance(random.Random(seed), max_points=8)
    inc = build_incidence(ps, ff)
    certs = enumerate_minimal(inc, mode="fundamental")
    basis = kernel_basis(inc.matrix)
    dim = len(basis)
    # one fundamental circuit per kernel dimension, each a true circuit
    assert len(certs) == dim
    oracle = oracle_minimal_paths(inc)
    assert all(frozenset(cert.support) in oracle for cert in certs)
    # the same paths that decomposing the canonical kernel vectors yields
    peeled = {}
    for vec in basis:
        seed_cert = certificate_from_kernel_vector(inc, vec)
        for _, term in decompose_functional(inc, seed_cert).terms:
            peeled.setdefault(term.support, term)
    assert certs == sorted(peeled.values(), key=lambda c: (len(c.support), c.support))
    # embed each certificate over all points and measure the span
    from linsuper import RationalMatrix, rank

    if not certs:
        return
    rows = []
    for cert in certs:
        table = cert.as_table()
        rows.append([table.get(pid, F(0)) for pid in inc.point_ids])
    assert rank(RationalMatrix(len(rows), len(ps), [x for row in rows for x in row])) == dim


@given(st.integers(0, 2_000))
@settings(max_examples=80, deadline=None)
def test_detect_agrees_with_subset_oracle(seed):
    ps, ff = random_instance(random.Random(seed), max_points=8)
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    rows = integer_rows(inc)
    from itertools import combinations

    oracle_found = any(
        oracle_is_closed(rows, list(cols))
        for size in range(2, len(ps) + 1)
        for cols in combinations(range(len(ps)), size)
    )
    assert (cert is not None) == oracle_found
    if cert is not None:
        verify_certificate(inc, cert)


@given(st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_certify_minimal_agrees_with_oracle(seed):
    ps, ff = random_instance(random.Random(seed), max_points=8)
    inc = build_incidence(ps, ff)
    minimal = oracle_minimal_paths(inc)
    for support in minimal:
        result = certify_minimal(inc, tuple(sorted(support)))
        assert result.is_minimal
        basis = kernel_basis(inc.restricted(result.certificate.support))
        assert len(basis) == 1


@given(st.integers(0, 5_000))
@settings(max_examples=80, deadline=None)
def test_functionals_annihilate_superpositions(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    if cert is None:
        return
    g = random_superposition(rng, ps, ff)
    assert evaluate_certificate(cert, g) == 0
    for minimal_cert in enumerate_minimal(inc, mode="fundamental"):
        assert evaluate_certificate(minimal_cert, g) == 0


def test_functional_linearity(inc5):
    cert = detect(inc5)
    rng = random.Random(5)
    f = random_table(rng, inc5.point_ids)
    g = random_table(rng, inc5.point_ids)
    a, b = F(3, 2), F(-7, 3)
    combo = {pid: a * f[pid] + b * g[pid] for pid in inc5.point_ids}
    expected = a * evaluate_certificate(cert, f) + b * evaluate_certificate(cert, g)
    assert evaluate_certificate(cert, combo) == expected


def test_minimal_certificate_unique_up_to_sign(inc5):
    result = certify_minimal(inc5, (1, 2, 3, 4, 5))
    cert = result.certificate
    basis = kernel_basis(inc5.restricted(cert.support))
    assert len(basis) == 1
    assert all(x.denominator >= 1 for x in cert.lam)  # rational by construction
    assert unit_l1(basis[0]) == cert.lam


def test_decompose_six_point_vector(inc6):
    lam = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    cert = ClosedPathCertificate(inc6.point_ids, lam)
    decomposition = decompose_functional(inc6, cert)
    assert decomposition.recombined() == dict(zip(inc6.point_ids, lam))
    assert all(term_cert.minimal for _, term_cert in decomposition.terms)


def test_decompose_minimal_is_single_term(inc5):
    cert = detect(inc5)
    decomposition = decompose_functional(inc5, cert)
    assert len(decomposition.terms) == 1
    coeff, term = decomposition.terms[0]
    assert coeff == cert.lam[0] / term.lam[0]


def test_decompose_scales_linearly(inc6):
    lam = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    doubled = tuple(2 * x for x in lam)
    base = decompose_functional(inc6, ClosedPathCertificate(inc6.point_ids, lam))
    scaled = decompose_functional(inc6, ClosedPathCertificate(inc6.point_ids, doubled))
    assert [c.support for _, c in base.terms] == [c.support for _, c in scaled.terms]
    assert [2 * t for t, _ in base.terms] == [t for t, _ in scaled.terms]


@given(st.integers(0, 5_000))
@settings(max_examples=100, deadline=None)
def test_decompose_recombination_random(seed):
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    basis = kernel_basis(inc.matrix)
    if not basis:
        return
    # random kernel vector, restricted to its support
    vec = [F(0)] * len(ps)
    for v in basis:
        c = F(rng.randint(-3, 3))
        vec = [a + c * b for a, b in zip(vec, v)]
    support = tuple(pid for pid, x in zip(inc.point_ids, vec) if x)
    if not support:
        return
    lam = tuple(x for x in vec if x)
    cert = ClosedPathCertificate(support, lam)
    decomposition = decompose_functional(inc, cert)
    assert decomposition.recombined() == dict(zip(support, lam))


def test_decompose_reads_one_restricted_kernel(monkeypatch, inc6):
    import linsuper.paths

    calls = []
    real = linsuper.paths.kernel_basis

    def counting(m):
        calls.append(m.cols)
        return real(m)

    monkeypatch.setattr(linsuper.paths, "kernel_basis", counting)
    lam = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    decomposition = decompose_functional(inc6, ClosedPathCertificate(inc6.point_ids, lam))
    assert calls == [6]
    assert len(decomposition.terms) == 2


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_decompose_terms_are_the_fundamental_circuits_of_the_support(seed):
    # one term per canonical vector of the restricted kernel, on its support
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    support = inc.sorted_support(rng.sample(ps.ids, rng.randint(1, len(ps.ids))))
    lam = is_closed_path(inc, support)
    if lam is None:
        return
    cert = ClosedPathCertificate(support, lam)
    decomposition = decompose_functional(inc, cert)
    circuits = [tuple(pid for pid, x in zip(support, vec) if x) for vec in kernel_basis(inc.restricted(support))]
    assert [term.support for _, term in decomposition.terms] == circuits
    assert all(coeff for coeff, _ in decomposition.terms)
    assert decomposition.recombined() == cert.as_table()


def test_find_minimal_within_descends(inc6):
    cert = find_minimal_within(inc6, inc6.point_ids)
    assert cert.minimal
    assert set(cert.support) < set(inc6.point_ids)


def test_verify_rejects_tampered_certificate(inc5):
    from linsuper import InternalInvariantError

    cert = detect(inc5)
    tampered = ClosedPathCertificate(cert.support, cert.lam[:-1] + (cert.lam[-1] + 1,))
    with pytest.raises(InternalInvariantError, match="annihilate"):
        verify_certificate(inc5, tampered)
    unordered = ClosedPathCertificate(cert.support[::-1], cert.lam[::-1])
    with pytest.raises(InternalInvariantError, match="column order"):
        verify_certificate(inc5, unordered)


_NEAR = F(1, 10**40)


@given(
    st.lists(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=12)), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from([0, _NEAR, -_NEAR]),
)
@example([F(1, 2), F(-1, 2)], False, _NEAR)
@example([F(1, 2), F(-1, 2)], False, -_NEAR)
@example([1], False, -_NEAR)
@example([F(1, 3), 0, F(-2, 3)], False, 0)
def test_certificate_checks_match_the_fraction_formulas(raw, unit, nudge):
    # the checks run on integer numerators over one denominator; they must
    # decide exactly as the Fraction formulas do, near misses of the unit
    # norm included, on a mix of ints and Fractions
    total = sum(abs(x) for x in raw)
    lam = [F(x) / total if unit and total else x for x in raw]
    lam[-1] += nudge
    lam = tuple(int(x) if x.denominator == 1 else x for x in lam)
    support = tuple(range(1, len(lam) + 1))
    for normalized in (False, True):
        if any(x == 0 for x in lam) or (normalized and sum(abs(x) for x in lam) != 1):
            with pytest.raises(InputValidationError):
                ClosedPathCertificate(support, lam, normalized)
            continue
        cert = ClosedPathCertificate(support, lam, normalized)
        assert cert.integer_lambda() == integer_primitive(lam)
        assert cert.normalized_lambda() == unit_l1(lam)


@given(
    st.lists(st.integers(-5, 5), max_size=6),
    st.one_of(st.none(), st.integers(1, 12)),
    st.booleans(),
    st.integers(-1, 1),
)
@example([], 1, False, 0)
@example([2, -2], None, True, 0)
@example([3, 0, -3], 6, True, 0)
def test_integer_constructor_matches_the_fraction_one(nums, den, normalized, extra):
    # _of(support, nums, den) builds from the integers what the public
    # constructor builds from lam = nums / den: equal certificates with equal
    # `_nums`, or the same error; den None is the l1 norm, a unit-norm vector
    den = den or sum(map(abs, nums)) or 1
    support = tuple(range(1, len(nums) + 1 + extra))

    def built(make):
        try:
            return make(), None
        except InputValidationError as exc:
            return None, str(exc)

    by_ints, error = built(lambda: ClosedPathCertificate._of(support, nums, den, normalized))
    by_fractions, expected = built(lambda: ClosedPathCertificate(support, tuple(F(n, den) for n in nums), normalized))
    assert error == expected
    if by_ints is not None:
        assert by_ints == by_fractions and by_ints._nums == by_fractions._nums


@pytest.mark.parametrize("bad", range(4))
def test_verify_rejects_a_vector_failing_one_level_class(bad):
    # one function with four two-point classes: the signs cancel on every class
    # but `bad`, so exactly one class sum is nonzero
    from linsuper import InternalInvariantError

    ps = abstract_points(list(range(1, 9)))
    inc = build_incidence(ps, FunctionFamily(({pid: F((pid - 1) // 2) for pid in ps.ids},)))
    lam = tuple(F(1 if j % 2 == 0 or j // 2 == bad else -1) for j in range(8))
    with pytest.raises(InternalInvariantError, match="annihilate"):
        verify_certificate(inc, ClosedPathCertificate(ps.ids, lam))
    verify_certificate(inc, ClosedPathCertificate(ps.ids, tuple(F((-1) ** j) for j in range(8))))


def test_detect_on_a_grid_builds_at_most_one_dense_vector(monkeypatch):
    # detect keeps one kernel vector of the 361 of a 20x20 grid; it reads it
    # as integer pairs, so no dense kernel vector is built at all
    import linsuper.linalg

    ps = coordinate_points([(F(x), F(y)) for x in range(20) for y in range(20)])
    inc = build_incidence(ps, coordinate_functions(ps))
    built = []
    dense = linsuper.linalg._dense

    def counting(size, entries):
        built.append(size)
        return dense(size, entries)

    monkeypatch.setattr(linsuper.linalg, "_dense", counting)
    cert = detect(inc)
    assert built == []
    verify_certificate(inc, cert)
    assert len(kernel_basis(inc.matrix)) == 19 * 19


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_closed_path_checks_match_a_dense_support_reference(seed):
    # a support is a closed path iff no coordinate vanishes on every vector
    # of the restricted kernel; the library checks that on sparse supports,
    # the reference on the dense vectors of the reference elimination
    rng = random.Random(seed)
    ps, ff = random_instance(rng, max_points=8)
    inc = build_incidence(ps, ff)
    support = rng.sample(ps.ids, rng.randint(1, len(ps.ids)))
    ordered = inc.sorted_support(support)
    cols = [inc.point_ids.index(pid) for pid in ordered]
    rows = integer_rows(inc)
    basis = dense_kernel([[F(row[c]) for c in cols] for row in rows], len(cols))
    closed = bool(basis) and all(map(any, zip(*basis)))
    assert closed == oracle_is_closed(rows, cols)
    vec = is_closed_path(inc, support)
    assert (vec is not None) == closed
    if not closed:
        for check in (certify_minimal, find_minimal_within):
            with pytest.raises(ContractViolationError):
                check(inc, support)
        return
    assert all(vec) and not any(dense_product(inc.restricted(ordered), vec))
    circuit = tuple(pid for pid, x in zip(ordered, basis[0]) if x)
    result = certify_minimal(inc, support)
    assert result.is_minimal == (len(basis) == 1)
    assert (result.certificate.support if result.is_minimal else result.counterexample) == circuit
    found = find_minimal_within(inc, support)
    assert found.support == circuit and found.lam == unit_l1([x for x in basis[0] if x])


def _two_parts_and_pendants(seed):
    """An instance of two blocks on disjoint values of every function, each
    with more points than its rows have rank, plus pendant points that take
    a value of the first function alone (coloops)."""
    rng = random.Random(seed)
    r = rng.randint(2, 3)
    sizes = (r + 2, rng.randint(r + 2, 5), rng.randint(1, 2))  # block A, block B, pendants
    tables = [{} for _ in range(r)]
    pid = 0
    for block, size in enumerate(sizes):
        for k in range(size):
            pid += 1
            for i, table in enumerate(tables):
                pendant = block == 2 and i == 0
                table[pid] = F(100 + k if pendant else (0, 2, 2)[block] + rng.randint(0, 1))
    ps = abstract_points(list(range(1, pid + 1)))
    return build_incidence(ps, FunctionFamily(tuple(tables)))


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_search_with_coloops_and_two_parts_matches_the_oracle(seed):
    inc = _two_parts_and_pendants(seed)
    minimal = oracle_minimal_paths(inc)
    parts = oracle_parts(inc)
    assert len(parts) >= 2 and len(set().union(*parts)) < inc.n_points  # the shape asked for
    for max_support in range(2, inc.n_points + 1):
        certs = enumerate_minimal(inc, max_support, "exhaustive")
        assert {frozenset(c.support) for c in certs} == {s for s in minimal if len(s) <= max_support}
        for cert in certs:
            assert cert == find_minimal_within(inc, cert.support)


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_candidates_hold_no_coloop_and_stay_in_one_part(monkeypatch, seed):
    # every node asks what its last column closes, also the nodes that need no elimination
    import linsuper.paths

    inc = _two_parts_and_pendants(seed)
    parts = oracle_parts(inc)
    candidates, eliminated = [], []
    real_closed, real_restrict = linsuper.paths._closed_by_last, IncidenceMatrix.restricted

    def recording(inc, candidate, touched):
        candidates.append(set(candidate))
        return real_closed(inc, candidate, touched)

    def restricting(inc, support):
        eliminated.append({inc.column_index(pid) for pid in support})
        return real_restrict(inc, support)

    monkeypatch.setattr(linsuper.paths, "_closed_by_last", recording)
    monkeypatch.setattr(IncidenceMatrix, "restricted", restricting)
    enumerate_minimal(inc, inc.n_points, "exhaustive")
    assert candidates and all(any(c <= part for part in parts) for c in candidates)
    assert eliminated and len(eliminated) < len(candidates)
    assert all(c in candidates for c in eliminated)


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_search_on_two_functions_finds_the_cycles_of_the_class_graph(seed):
    # r = 2: classes are vertices and points edges of a bipartite graph, whose
    # cycles are the minimal closed paths; a referee with no elimination, for
    # instances far past the reach of the subset oracle
    rng = random.Random(seed)
    found = 0
    for _ in range(15):
        n, top = rng.randint(2, 30), rng.randint(1, 7)
        ps = abstract_points(list(range(1, n + 1)))
        inc = build_incidence(ps, FunctionFamily(tuple({pid: F(rng.randint(0, top)) for pid in ps.ids} for _ in range(2))))
        assert len(kernel_basis(inc.matrix)) == class_graph_nullity(inc)
        max_support = rng.randint(2, 4 if n > 20 else 6)
        certs = enumerate_minimal(inc, max_support, "exhaustive")
        assert {frozenset(c.support) for c in certs} == class_graph_cycles(inc, max_support)
        for cert in certs:  # an even cycle, with alternating signs
            half = len(cert.support) // 2
            assert sorted(cert.integer_lambda()) == [-1] * half + [1] * half
        found += len(certs)
    assert found
