"""Acceptance gate: one test per criterion, every check exact (zero tolerance).

Each test prints a single PASS line when its criterion holds; a failed
assertion is the FAIL signal. Everything is seeded and deterministic.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from linsuper import (
    ClosedPathCertificate,
    ConstraintError,
    StaircaseParams,
    ZigzagParams,
    ParallelLinesParams,
    build_incidence,
    certify_minimal,
    classify_ni,
    decompose_functional,
    detect,
    direction,
    enumerate_minimal,
    generate_pathfree_example,
    hypercube_path,
    integer_primitive,
    is_representable,
    kernel_basis,
    make_witness,
    representable_by_orthogonality,
    ridge_instance,
    verify_certificate,
)
from linsuper.cli import main

from examples import broken_line, five_point_path, six_point_path, unit_grid
from oracles import dense_product, oracle_minimal_paths, random_instance, random_table, recombined

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _passed(num: int, text: str) -> None:
    print(f"acceptance criterion {num}: PASS - {text}")


def _instance_pool(count: int, seed: int = 20240) -> list:
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        ps, ff = random_instance(rng, max_points=9, max_functions=3, values=(0, 1, 2))
        pool.append((ps, ff, build_incidence(ps, ff)))
    return pool


@pytest.fixture(scope="module")
def pool500():
    return _instance_pool(500)


def test_criterion_1_five_point_path_certificate():
    ps, ff = five_point_path()
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    assert cert is not None
    expected = (F(-1, 3), F(1, 6), F(1, 6), F(1, 6), F(-1, 6))
    normalized = cert.normalized_lambda()
    assert normalized == expected or normalized == tuple(-x for x in expected)
    result = certify_minimal(inc, cert.support)
    assert result.is_minimal
    assert len(kernel_basis(inc.restricted(cert.support))) == 1
    _passed(1, "five-point path certificate and minimality, exact")


def test_criterion_2_six_point_path_decomposition():
    ps, ff = six_point_path()
    inc = build_incidence(ps, ff)
    known = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    assert all(x == 0 for x in dense_product(inc.matrix, known))
    result = certify_minimal(inc, inc.point_ids)
    assert not result.is_minimal
    assert result.counterexample == (1, 2, 3, 4, 5)
    cert = ClosedPathCertificate(inc.point_ids, known)
    decomposition = decompose_functional(inc, cert)
    assert decomposition.recombined() == dict(zip(inc.point_ids, known))
    _passed(2, "six-point vector verifies, is non-minimal, and recombines exactly")


def test_criterion_3_oracle_equivalence(pool500):
    started = time.perf_counter()
    disagreements = 0
    for ps, ff, inc in pool500:
        oracle_minimal = oracle_minimal_paths(inc)
        found = detect(inc)
        if (found is not None) != bool(oracle_minimal):
            disagreements += 1
        enumerated = enumerate_minimal(inc, len(ps), "exhaustive")
        if {frozenset(c.support) for c in enumerated} != oracle_minimal:
            disagreements += 1
        for cert in enumerated:
            verify_certificate(inc, cert)
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed <= 60, f"oracle sweep took {elapsed:.1f}s"
    _passed(3, f"500-instance oracle sweep, zero disagreements, {elapsed:.1f}s")


def test_criterion_4_membership_round_trip(pool500):
    rng = random.Random(77)
    for ps, ff, inc in pool500:
        cert = detect(inc)
        if cert is None:
            for _ in range(20):
                f = random_table(rng, ps.ids)
                result = is_representable(inc, f)
                assert result.representable
                assert recombined(ff, result.decomposition.tables, ps.ids) == f
        else:
            witness = make_witness(cert, ps)
            result = is_representable(inc, witness.f0)
            assert not result.representable
            assert result.violation_value == sum(abs(x) for x in result.violation.lam)
    _passed(4, "no-path instances admit all tables; paths reject their witnesses")


def test_criterion_5_duality(pool500):
    rng = random.Random(99)
    checked = 0
    for ps, ff, inc in pool500[:200]:
        f = random_table(rng, ps.ids)
        via_solve = is_representable(inc, f).representable
        via_kernel = representable_by_orthogonality(inc, f)
        assert via_solve == via_kernel
        checked += 1
    assert checked == 200
    _passed(5, "solver and kernel-orthogonality agree on 200 random pairs")


def test_criterion_6_hypercube_generator():
    rng = random.Random(4242)
    built = 0
    while built < 50:
        d = rng.choice((2, 3))
        r = rng.randint(1, 4)
        dirs = []
        while len(dirs) < r:
            vec = tuple(F(rng.randint(-4, 4)) for _ in range(d))
            if any(vec):
                dirs.append(direction(vec))
        center = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))
        try:
            path = hypercube_path(dirs, center, F(1, rng.randint(1, 16)))
        except ConstraintError:
            continue  # parallel directions in the plane: offsets cannot exist
        assert path.lam == tuple(F((-1) ** sum(eps)) for eps in path.epsilons)
        inc = build_incidence(path.instance.points, path.instance.family)
        assert all(x == 0 for x in dense_product(inc.matrix, path.lam))
        witness = make_witness(path.certificate(), path.instance.points)
        assert not is_representable(inc, witness.f0).representable
        built += 1
    _passed(6, "50 hypercube paths verified exactly; witnesses all rejected")


def test_criterion_7_ridge_example_fixtures():
    for r in range(2, 6):
        dirs = tuple(direction([1 if i == k else 0 for i in range(r)]) for k in range(r))
        example = generate_pathfree_example("staircase", StaircaseParams(dirs))
        assert classify_ni(example.instance).kind == "interpolable"
        assert len(example.instance.points) == r + 1
    gridverdict = classify_ni(
        ridge_instance(
            (direction((1, 0)), direction((0, 1))),
            unit_grid()[0],
        )
    )
    assert gridverdict.kind == "MNI"
    assert integer_primitive(gridverdict.m) == (F(1), F(-1), F(-1), F(1))
    lines = generate_pathfree_example(
        "parallel-lines",
        ParallelLinesParams(
            directions=(direction((1, 0)), direction((0, 1))),
            line_direction=(F(1), F(1)),
            base_first=(F(0), F(0)),
            base_second=(F(0), F(1)),
            samples_per_line=12,
        ),
    )
    assert len(lines.instance.points) >= 20
    assert detect(build_incidence(lines.instance.points, lines.instance.family)) is None
    zig = generate_pathfree_example("zigzag", ZigzagParams(count=24, step=F(1, 2)))
    assert len(zig.instance.points) >= 20
    assert detect(build_incidence(zig.instance.points, zig.instance.family)) is None
    _passed(7, "staircases interpolable, grid MNI, line and zigzag samples path-free")


def test_criterion_8_broken_line_truncations():
    ps, ff = broken_line(25)
    assert len(ps) == 25
    inc = build_incidence(ps, ff)
    assert detect(inc) is None
    rng = random.Random(8)
    for _ in range(10):
        f = random_table(rng, ps.ids)
        result = is_representable(inc, f)
        assert result.representable
        g1, g2 = result.decomposition.tables
        for p in ps.points:
            assert g1[p.coords[0]] + g2[p.coords[1]] == f[p.id]
    for count in range(1, 26, 2):
        sub_ps, sub_ff = broken_line(count)
        assert detect(build_incidence(sub_ps, sub_ff)) is None
    _passed(8, "25-vertex broken line and all truncations path-free, exact splits")


GOLDEN = [
    ("five_point_path", ["detect"]),
    ("six_point_path", ["circuits", "--mode", "exhaustive", "--max-support", "6"]),
    ("grid", ["ridge", "classify"]),
    ("staircase", ["detect"]),
    ("broken_line25", ["detect"]),
    ("five_point_witness", ["represent"]),
    ("five_point_member", ["represent"]),
    ("hypercube_plane", ["detect"]),
    ("parallel_lines", ["detect"]),
    ("zigzag", ["detect"]),
]


def test_criterion_9_determinism(tmp_path, capsys):
    for name, command in GOLDEN:
        instance = str(FIXTURES / f"{name}.json")
        if command[0] == "ridge":
            argv = command[:2] + [instance] + command[2:]
        else:
            argv = command[:1] + [instance] + command[1:]
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}-{run}.json"
            code = main(argv + ["--output", str(out)])
            assert code in (0, 1)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed machine document
    capsys.readouterr()
    _passed(9, "repeated golden-fixture runs are byte-identical")
