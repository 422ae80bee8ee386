"""The benchmark's workloads: seeded inputs, the operations timed on them, and
the checks that decide whether each operation's output is correct.

Every operation calls linsuper through module attributes looked up at call
time (`L.detect`, `cli.main`), so the tracer's rebinding sees it. Inputs are
made with the public constructors (`Point`, `PointSet`, `FunctionFamily`,
`coordinate_functions`, `direction`) or written as format-1 instance
documents; nothing here depends on the library's private helpers or on its
test code.

Workloads:

- large-instance: the biggest instances a run can sample often enough (grids
  up to 12x12, broken lines up to 120 vertices, hypercube paths up to r=7).
  The dense elimination does almost all the work.
- circuit-search: tabulated instances with n=8..10 points, r=3 functions and
  values in {0,1,2}, searched exhaustively. Thousands of tiny eliminations.
- cli-corpus: 112 calls of `linsuper.cli.main` on 94 small instance files
  (the ten golden fixtures included) and 8 generated samples. Parsing,
  quantizing, re-verification and report rendering dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import linsuper as L
import linsuper.cli as cli

WORKLOADS = ("large-instance", "circuit-search", "cli-corpus")

# A check failure carrying this tag is a defect the benchmark documents rather
# than a harness or regression failure: `ridge classify` re-tabulates the family
# from the directions and so ignores --quantize-eps, while `detect` uses the
# quantized family. It still counts as a failed operation.
KNOWN_DEFECT = "known defect: ridge classify ignores the quantized family"

# Structures of the circuit-search instances come from this fixed seed; the
# workload seed relabels them (point ids, value labels, function order). Drawn
# structures differ in exhaustive-search cost by up to 3x from one instance to
# the next, which would swamp a run-to-run comparison across seeds.
CIRCUIT_POOL_SEED = 20150121

# Likewise the shapes of the generated cli-corpus instances (which grid points,
# which directions, which value tables) come from this fixed seed, and the
# workload seed draws ids, value labels, scales and targets. With seeded shapes
# the exhaustive `circuits` calls, which sit at the corpus's tail percentile,
# moved op_tail_ms by 11% (IQR / median) from seed to seed.
CORPUS_POOL_SEED = 20150122


@dataclass
class Op:
    """One timed call. `check` returns the reasons the result is wrong ([] if
    right); `summary` is the result's semantic content, which is digested."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    summary: Callable[[Any], Any]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def digest(summary: Any) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(workload: str, seed: int, root: Path, workdir: Path, smoke: bool = False) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-instance":
        return _large_instance(rng, smoke)
    if workload == "circuit-search":
        return _circuit_search(rng, smoke)
    if workload == "cli-corpus":
        return _cli_corpus(rng, root, workdir, smoke)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# summaries shared by the library workloads


def _cert(cert) -> Any:
    if cert is None:
        return None
    return [list(cert.support), [str(x) for x in cert.integer_lambda()]]


def _representation(res) -> Any:
    if res.representable:
        tables = [sorted([str(v), str(g)] for v, g in t.items()) for t in res.decomposition.tables]
        return {"representable": True, "g_tables": tables, "freedom": res.decomposition.freedom}
    return {"representable": False, "violation": _cert(res.violation), "value": str(res.violation_value)}


def _certs_ok(inc, certs) -> list[str]:
    reasons = []
    for cert in certs:
        try:
            L.verify_certificate(inc, cert)
        except L.InternalInvariantError as exc:
            reasons.append(f"certificate {cert.support} does not re-verify: {exc}")
    return reasons


def _minimal_ok(inc, certs) -> list[str]:
    return [
        f"circuit {c.support} is not minimal"
        for c in certs
        if not L.certify_minimal(inc, c.support).is_minimal
    ]


def _member_ok(inc, family, target, res) -> list[str]:
    """A member verdict: reconstruction and g-tables both give back the target."""
    if not res.representable:
        return ["a member target was declared not representable"]
    dec = res.decomposition
    if dec.reconstruction != dict(target):
        return ["reconstruction differs from the target"]
    for pid in inc.point_ids:
        total = sum(dec.tables[i].get(family.tables[i][pid], F(0)) for i in range(family.r))
        if total != target[pid]:
            return [f"g-tables do not sum to the target at point {pid}"]
    return []


def _nonmember_ok(inc, target, res) -> list[str]:
    if res.representable:
        return ["a non-member target was declared representable"]
    reasons = _certs_ok(inc, [res.violation])
    value = L.evaluate_certificate(res.violation, target)
    if value == 0 or value != res.violation_value:
        reasons.append("violated functional does not evaluate to the reported nonzero value")
    if L.representable_by_orthogonality(inc, target):
        reasons.append("orthogonality cross-check says the target is representable")
    return reasons


# --------------------------------------------------------------------------
# large-instance


def _increasing(rng: random.Random, k: int) -> list[F]:
    """k strictly increasing random rationals, so level classes keep their order."""
    value = F(rng.randint(-9, 9), rng.randint(1, 9))
    values = []
    for _ in range(k):
        values.append(value)
        value += F(rng.randint(1, 9), rng.randint(1, 9))
    return values


def _point_set(rng: random.Random, coords: list[tuple[F, ...]]) -> L.PointSet:
    ids = rng.sample(range(1, 10 * len(coords) + 10), len(coords))
    return L.PointSet(tuple(L.Point(pid, c) for pid, c in zip(ids, coords)))


def _grid(rng: random.Random, k: int):
    xs, ys = _increasing(rng, k), _increasing(rng, k)
    ps = _point_set(rng, [(x, y) for x in xs for y in ys])
    family = L.coordinate_functions(ps)
    g1 = {x: F(rng.randint(-9, 9)) for x in xs}
    g2 = {y: F(rng.randint(-9, 9)) for y in ys}
    member = {p.id: g1[p.coords[0]] + g2[p.coords[1]] for p in ps.points}
    nonmember = dict(member)
    bumped = rng.choice(ps.ids)
    nonmember[bumped] += rng.choice((-3, -2, -1, 1, 2, 3))
    return ps, family, member, nonmember


def _broken_line(rng: random.Random, count: int):
    """Axis-parallel staircase with steps 1/m^2: path-free at every length."""
    scale = F(rng.randint(1, 5), rng.randint(1, 5))
    sums = [F(0)]
    while 2 * (len(sums) - 1) < count + 2:
        m = len(sums)
        sums.append(sums[-1] + scale / (m * m))
    coords = []
    for idx in range(count):
        m, odd = divmod(idx, 2)
        coords.append((sums[m + 1], sums[m]) if odd else (sums[m], sums[m]))
    ps = _point_set(rng, coords)
    a, b, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
    target = {p.id: a * p.coords[0] * p.coords[1] + b * p.coords[0] + c * p.coords[1] for p in ps.points}
    return ps, L.coordinate_functions(ps), target


def _library_op(name, ps, family, call, check, summary) -> Op:
    """An op that builds the incidence matrix and calls one library function."""

    def run():
        inc = L.build_incidence(ps, family)
        return inc, call(inc)

    return Op(name, run, lambda r: check(*r), lambda r: summary(r[1]))


_ALL_GRID_OPS = ("detect", "represent-nonmember", "represent-member", "circuits-fundamental")

# Sizes of the large-instance inputs. On a shared machine whose speed swings by
# up to 2x from one second to the next, an operation's time is steady only if
# it is sampled many times across the run. With 20x20 and 16x16 grids (0.4 to
# 1 s per operation) a pass took 2 to 6 s, too few passes for a 30 s run, so
# the largest grid is 12x12.
_LARGE = {
    "grids": {4: _ALL_GRID_OPS, 6: _ALL_GRID_OPS, 8: _ALL_GRID_OPS, 10: _ALL_GRID_OPS, 12: _ALL_GRID_OPS},
    "line_detect": (60, 120),
    "line_represent": (40,),
    # (directions, r, also classify the points)
    "cubes": (("plane", 3, True), ("plane", 4, True), ("plane", 5, True), ("space", 6, True), ("space", 7, False)),
}
_LARGE_SMOKE = {
    "grids": {2: _ALL_GRID_OPS, 3: _ALL_GRID_OPS},
    "line_detect": (6,),
    "line_represent": (6,),
    "cubes": (("plane", 3, True), ("space", 4, True)),
}


def _large_instance(rng: random.Random, smoke: bool) -> list[Op]:
    sizes = _LARGE_SMOKE if smoke else _LARGE
    ops: list[Op] = []
    for k, kinds in sizes["grids"].items():
        ps, family, member, nonmember = _grid(rng, k)
        tag = f"grid{k}x{k}"

        def detect_check(inc, cert):
            if cert is None:
                return ["a grid with k >= 2 has a closed path, detect found none"]
            return _certs_ok(inc, [cert])

        def fundamental_check(inc, certs):
            reasons = _certs_ok(inc, certs)
            if any(c.minimal is not True for c in certs):
                reasons.append("a fundamental circuit is not marked minimal")
            nullity = len(L.kernel_basis(inc.matrix))
            if len(certs) < nullity:
                reasons.append(f"{len(certs)} circuits cannot span a kernel of dimension {nullity}")
            return reasons

        grid_ops = {
            "detect": (L.detect, detect_check, _cert),
            "represent-nonmember": (
                lambda inc, f=nonmember: L.is_representable(inc, f),
                lambda inc, res, f=nonmember: _nonmember_ok(inc, f, res),
                _representation,
            ),
            "represent-member": (
                lambda inc, f=member: L.is_representable(inc, f),
                lambda inc, res, f=member, ff=family: _member_ok(inc, ff, f, res),
                _representation,
            ),
            "circuits-fundamental": (
                lambda inc: L.enumerate_minimal(inc, None, "fundamental"),
                fundamental_check,
                lambda certs: [_cert(c) for c in certs],
            ),
        }
        for kind in kinds:
            ops.append(_library_op(f"{tag}/{kind}", ps, family, *grid_ops[kind]))
    for count in sizes["line_detect"]:
        ps, family, _ = _broken_line(rng, count)
        ops.append(
            _library_op(
                f"broken{count}/detect", ps, family, L.detect,
                lambda inc, cert: [] if cert is None else ["a broken line has no closed path, detect found one"],
                _cert,
            )
        )
    for count in sizes["line_represent"]:
        ps, family, target = _broken_line(rng, count)
        ops.append(
            _library_op(
                f"broken{count}/represent-member", ps, family,
                lambda inc, f=target: L.is_representable(inc, f),
                lambda inc, res, f=target, ff=family: _member_ok(inc, ff, f, res),
                _representation,
            )
        )
    for kind, r, classify in sizes["cubes"]:
        ops.extend(_hypercube_ops(rng, kind, r, classify))
    return ops


# Pairwise independent directions in the plane make the hypercube path a
# minimal closed path (MNI); in R^4 the path contains smaller ones (NI). In
# the plane, r=6 and r=7 cost 0.7 s and 5 s, so the largest cubes are in R^4.
_CUBE_DIRECTIONS = {
    "plane": [(1, 0), (0, 1), (1, 1), (1, 2), (1, -1), (2, 1), (1, 3)],
    "space": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)],
}


def _hypercube_ops(rng: random.Random, kind: str, r: int, classify_too: bool) -> list[Op]:
    """hypercube_path around a seeded center and scale, then classify_ni on its points."""
    vectors = _CUBE_DIRECTIONS[kind][:r]
    dirs = [L.direction(v) for v in vectors]
    center = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in vectors[0]]
    scale = F(1, rng.randint(2, 16))
    built: dict[str, Any] = {}

    def hypercube():
        built["path"] = L.hypercube_path(dirs, center, scale)
        return built["path"]

    def hypercube_check(path):
        inc = L.build_incidence(path.instance.points, path.instance.family)
        reasons = _certs_ok(inc, [path.certificate()])
        if len(path.instance.points) != 2**r:
            reasons.append(f"expected {2 ** r} points, got {len(path.instance.points)}")
        return reasons

    def classify():
        instance = L.ridge_instance(dirs, built["path"].instance.points)
        return instance, L.classify_ni(instance)

    def classify_check(instance, verdict):
        expected = ("MNI",) if kind == "plane" else ("NI", "MNI")
        if verdict.kind not in expected:
            return [f"expected {' or '.join(expected)} for this hypercube path, classify_ni said {verdict.kind}"]
        inc = L.build_incidence(instance.points, instance.family)
        reasons = _certs_ok(inc, [verdict.certificate])
        if verdict.kind == "MNI" and not all(verdict.m):
            reasons.append("MNI vector m has a zero entry")
        return reasons

    ops = [
        Op(
            f"hypercube-{kind}-r{r}/hypercube_path", hypercube, hypercube_check,
            lambda p: {"points": [list(map(str, q.coords)) for q in p.instance.points.points],
                       "lam": [str(x) for x in p.lam]},
        ),
    ]
    if classify_too:
        ops.append(Op(
            f"hypercube-{kind}-r{r}/classify", classify, lambda res: classify_check(*res),
            lambda res: {"kind": res[1].kind, "m": [str(x) for x in res[1].m], "cert": _cert(res[1].certificate)},
        ))
    return ops


# --------------------------------------------------------------------------
# circuit-search


def _circuit_pool(smoke: bool) -> list[list[list[int]]]:
    """Balanced value tables (each value equally often) for r=3 functions."""
    sizes = (6, 7) if smoke else (8, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10)
    pool_rng = random.Random(CIRCUIT_POOL_SEED)
    pool = []
    for n in sizes:
        tables = []
        for _ in range(3):
            values = [k % 3 for k in range(n)]
            pool_rng.shuffle(values)
            tables.append(values)
        pool.append(tables)
    return pool


def _circuit_search(rng: random.Random, smoke: bool) -> list[Op]:
    ops: list[Op] = []
    for index, base in enumerate(_circuit_pool(smoke)):
        n = len(base[0])
        ids = rng.sample(range(1, 1000), n)
        ps = L.PointSet(tuple(L.Point(pid) for pid in ids))
        relabelled = []
        for values in base:
            labels = [0, 1, 2]
            rng.shuffle(labels)
            relabelled.append({pid: F(labels[v]) for pid, v in zip(ids, values)})
        rng.shuffle(relabelled)
        family = L.FunctionFamily(tuple(relabelled))
        inc = L.build_incidence(ps, family)
        fundamentals = [L.certificate_from_kernel_vector(inc, v) for v in L.kernel_basis(inc.matrix)]
        tag = f"tab{index}-n{n}"
        ops.append(_exhaustive_op(tag, inc, fundamentals))
        for j, cert in enumerate(fundamentals):
            ops.extend(_peeling_ops(f"{tag}/v{j}", inc, cert))
    return ops


def _exhaustive_op(tag: str, inc, fundamentals) -> Op:
    def check(certs):
        reasons = _certs_ok(inc, certs) + _minimal_ok(inc, certs)
        found = {c.support for c in certs}
        if len(found) != len(certs):
            reasons.append("duplicate circuits")
        for cert in fundamentals:
            for _, term in L.decompose_functional(inc, cert).terms:
                if term.support not in found:
                    reasons.append(f"circuit {term.support} from peeling is missing")
        return reasons

    return Op(
        f"{tag}/exhaustive",
        lambda: L.enumerate_minimal(inc, inc.n_points, "exhaustive"),
        check,
        lambda certs: [_cert(c) for c in certs],
    )


def _peeling_ops(tag: str, inc, cert) -> list[Op]:
    support = cert.support

    def certify_check(res):
        if res.is_minimal:
            if res.certificate.support != support:
                return ["minimal certificate changed the support"]
            return _certs_ok(inc, [res.certificate])
        sub = res.counterexample
        if not set(sub) < set(support) or L.is_closed_path(inc, sub) is None:
            return [f"counterexample {sub} is not a closed path strictly inside {support}"]
        return []

    def within_check(found):
        reasons = _certs_ok(inc, [found])
        if not set(found.support) <= set(support):
            reasons.append("minimal path leaves the given support")
        if not L.certify_minimal(inc, found.support).is_minimal:
            reasons.append("returned path is not minimal")
        return reasons

    def decompose_check(dec):
        reasons = _certs_ok(inc, [t for _, t in dec.terms])
        if dec.recombined() != cert.as_table():
            reasons.append("terms do not recombine to the functional")
        return reasons

    return [
        Op(
            f"{tag}/certify_minimal",
            lambda: L.certify_minimal(inc, support),
            certify_check,
            lambda res: {"minimal": res.is_minimal, "cert": _cert(res.certificate),
                         "counterexample": res.counterexample},
        ),
        Op(f"{tag}/find_minimal_within", lambda: L.find_minimal_within(inc, support), within_check, _cert),
        Op(
            f"{tag}/decompose_functional",
            lambda: L.decompose_functional(inc, cert),
            decompose_check,
            lambda dec: [[str(c), _cert(t)] for c, t in dec.terms],
        ),
    ]


# --------------------------------------------------------------------------
# cli-corpus: instance documents, CLI calls and report checks


@dataclass
class _Instance:
    """A decoded format-1 document: point set, (quantized) family and target."""

    points: L.PointSet
    family: L.FunctionFamily
    target: dict[int, F] | None


def _decode(doc: dict, eps: F | None) -> _Instance:
    """Decode a format-1 document with the public constructors, independently of the CLI."""
    points = L.PointSet(
        tuple(
            L.Point(p["id"], None if p.get("coords") is None else tuple(F(c) for c in p["coords"]))
            for p in doc["points"]
        )
    )
    functions = doc["functions"]
    if functions["kind"] == "ridge":
        dirs = [L.direction([F(c) for c in vec]) for vec in functions["directions"]]
        family = L.ridge_instance(dirs, points).family
    else:
        family = L.FunctionFamily(
            tuple({int(k): F(v) for k, v in t.items()} for t in functions["tables"])
        )
    options = doc.get("options") or {}
    file_eps = options.get("quantize_eps")
    for value in (file_eps, eps):
        if value is not None and F(value) > 0:
            family, _ = L.quantize_family(family, F(value))
    target = None if doc.get("target") is None else {int(k): F(v) for k, v in doc["target"].items()}
    return _Instance(points, family, target)


def _ridge_doc(coords, dirs, target=None) -> dict:
    doc = {
        "format": 1,
        "points": [{"id": k + 1, "coords": [str(c) for c in p]} for k, p in enumerate(coords)],
        "functions": {"kind": "ridge", "directions": [[str(c) for c in d] for d in dirs]},
    }
    if target is not None:
        doc["target"] = {str(k): str(v) for k, v in target.items()}
    return doc


def _tabulated_doc(ids, tables, target=None) -> dict:
    doc = {
        "format": 1,
        "points": [{"id": pid} for pid in ids],
        "functions": {"kind": "tabulated", "tables": [{str(pid): str(v) for pid, v in t.items()} for t in tables]},
    }
    if target is not None:
        doc["target"] = {str(k): str(v) for k, v in target.items()}
    return doc


def _call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _eps_of(argv: list[str]) -> F | None:
    return F(argv[argv.index("--quantize-eps") + 1]) if "--quantize-eps" in argv else None


class _Corpus:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        self.rng = rng
        self.workdir = workdir
        self.ops: list[Op] = []

    def write(self, name: str, doc: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return path

    def add(self, name: str, argv: list[str], doc: dict | None, expected: str | None = None) -> None:
        """Queue `linsuper <argv> --json`; check against `doc` and, if given, exact expected stdout."""
        argv = argv + ["--json"]

        def check(res: CliResult) -> list[str]:
            reasons = [] if expected is None or res.out == expected else ["report differs from the golden report"]
            return reasons + _check_report(argv, doc, res)

        self.ops.append(Op(name, lambda: _call_cli(argv), check, _cli_summary))


def _cli_corpus(rng: random.Random, root: Path, workdir: Path, smoke: bool) -> list[Op]:
    corpus = _Corpus(rng, workdir)
    _golden(corpus, root, smoke)
    # A bumped target is a non-member only where the bumped point lies on a
    # closed path; of the fixed shapes that holds for represent3, so the smoke
    # run keeps four represent instances to reach `make_witness`.
    sizes = dict(ridge=3, represent=4, tabulated=3, hypercube=1, near=2, exact_near=1) if smoke else dict(
        ridge=36, represent=10, tabulated=24, hypercube=6, near=4, exact_near=2
    )
    planes = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1)]

    # One command per instance. Sizes and commands depend on the instance's
    # index, shapes on CORPUS_POOL_SEED, so every seed does the same work on
    # relabelled inputs.
    pool = random.Random(f"{CORPUS_POOL_SEED}:ridge")
    for k in range(sizes["ridge"]):
        command = (["detect"], ["circuits"], ["ridge", "classify"])[k % 3]
        n = 5 + (k // 3) % 5
        coords = pool.sample([(x, y) for x in range(4) for y in range(4)], n)
        unit = F(rng.randint(1, 7), rng.randint(1, 7))
        coords = [(unit * x, unit * y) for x, y in coords]
        dirs = pool.sample(planes, 2 + (k // 3) % 2)
        doc = _ridge_doc(coords, dirs)
        path = str(corpus.write(f"ridge{k}", doc))
        corpus.add(f"ridge{k}/{'-'.join(command)}", command + [path], doc)

    pool = random.Random(f"{CORPUS_POOL_SEED}:represent")
    for k in range(sizes["represent"]):
        n = 5 + k % 5
        coords = pool.sample([(x, y) for x in range(4) for y in range(4)], n)
        dirs = pool.sample(planes, 2)
        g = [{v: F(rng.randint(-5, 5), rng.randint(1, 3)) for v in range(-8, 13)} for _ in dirs]
        target = {
            j + 1: sum(g[i][d[0] * x + d[1] * y] for i, d in enumerate(dirs)) for j, (x, y) in enumerate(coords)
        }
        if k % 2:
            target[pool.randint(1, n)] += 1
        doc = _ridge_doc(coords, dirs, target)
        path = str(corpus.write(f"represent{k}", doc))
        corpus.add(f"represent{k}/represent", ["represent", path], doc)

    pool = random.Random(f"{CORPUS_POOL_SEED}:tabulated")
    for k in range(sizes["tabulated"]):
        command = (["detect"], ["circuits", "--mode", "exhaustive", "--max-support", "4"], ["represent"])[k % 3]
        n, r = 5 + (k // 3) % 3, 2 + (k // 3) % 2
        ids = sorted(rng.sample(range(1, 100), n))
        tables = []
        for _ in range(r):
            shape = [v % 3 for v in range(n)]
            pool.shuffle(shape)
            labels = [F(0), F(1), F(2)]
            rng.shuffle(labels)
            tables.append({pid: labels[v] for pid, v in zip(ids, shape)})
        target = {pid: F(rng.randint(-4, 4)) for pid in ids}
        doc = _tabulated_doc(ids, tables, target)
        path = str(corpus.write(f"tab{k}", doc))
        corpus.add(f"tab{k}/{command[0]}", command[:1] + [path] + command[1:], doc)

    for k in range(sizes["hypercube"]):
        d = 2 + k % 2
        r = 1 + k % (3 if d == 2 else 4)
        dirs = planes[:r] if d == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)][:r]
        doc = _ridge_doc([tuple(F(0) for _ in range(d))], dirs)
        path = str(corpus.write(f"cube{k}", doc))
        center = ",".join(str(F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(d))
        scale = str(F(1, rng.randint(1, 16)))
        corpus.add(f"cube{k}/hypercube", ["ridge", "hypercube", path, f"--center={center}", f"--scale={scale}"], None)

    generators = [
        ["--kind", "parallel-lines", "--samples", "5", "--step", str(F(rng.randint(1, 4), 2))],
        ["--kind", "parallel-lines", "--samples", "8", "--base2", f"0,{rng.randint(1, 3)}"],
        ["--kind", "zigzag", "--samples", "8", "--step", str(F(1, rng.randint(2, 4)))],
        ["--kind", "zigzag", "--samples", "16", "--start", str(F(rng.randint(0, 3), 3))],
        ["--kind", "staircase", "--dimension", "3", "--directions", "1,0,0;0,1,0;1,1,1"],
        ["--kind", "staircase", "--dimension", "4"],
        ["--kind", "transversal-curve", "--samples", "6", "--start", str(rng.randint(0, 3)), "--coefficients", "0,1;1,2"],
        ["--kind", "transversal-curve", "--samples", "8", "--step", str(F(1, rng.randint(1, 3))), "--coefficients", "0,1;0,0,1"],
    ]
    for k, args in enumerate(generators[: 2 if smoke else None]):
        corpus.add(f"generate{k}/{args[1]}", ["generate"] + args, None)

    _quantized(corpus, sizes["near"], sizes["exact_near"])
    return corpus.ops


def _golden(corpus: _Corpus, root: Path, smoke: bool) -> None:
    """The committed fixtures with the command behind each golden report."""
    expected_dir = root / "fixtures" / "expected"
    goldens = sorted(expected_dir.glob("*__*.json"))
    for report_path in goldens[:2] if smoke else goldens:
        name, suffix = report_path.stem.split("__")
        instance = root / "fixtures" / f"{name}.json"
        expected = report_path.read_text()
        report = json.loads(expected)
        argv = ["ridge", suffix.split("-", 1)[1]] if suffix.startswith("ridge-") else [suffix]
        argv.append(str(instance))
        if suffix == "circuits":
            options = report.get("options", {})
            argv += ["--mode", options.get("mode", "fundamental"), "--max-support", str(options.get("max_support", 8))]
        corpus.add(f"golden/{name}", argv, json.loads(instance.read_text()), expected)


def _quantized(corpus: _Corpus, near: int, exact_near: int) -> None:
    """Near-grids whose x-values coincide only after --quantize-eps 1/100.

    Quantized, the grid has a closed path; `ridge classify` re-tabulates the
    unquantized values and answers interpolable (the known defect).
    """
    rng = corpus.rng
    eps = "1/100"
    grids = [[(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1001, 1000), F(1))]]
    for _ in range(near - 1):
        # distinct offsets inside a column: unquantized, every x-class is a single point
        k = 2 + len(grids) % 3
        unit = F(rng.randint(1, 3), 2)
        grids.append([
            (F(i) + F(offset, 4000), F(j) * unit)
            for i in range(k) for j, offset in enumerate(rng.sample(range(40), k))
        ])
    for k, coords in enumerate(grids[:near]):
        doc = _ridge_doc(coords, [(1, 0), (0, 1)])
        path = str(corpus.write(f"near{k}", doc))
        for command in (["detect"], ["ridge", "classify"], ["circuits"]):
            corpus.add(f"near{k}/{'-'.join(command)}", command + [path, "--quantize-eps", eps], doc)
    for k in range(exact_near):
        # the same shape with a gap above eps: nothing merges and every command agrees
        k_grid = 2 + k % 2
        coords = [(F(i) + F(rng.randint(1, 3), 20) * j, F(j)) for i in range(k_grid) for j in range(k_grid)]
        doc = _ridge_doc(coords, [(1, 0), (0, 1)])
        path = str(corpus.write(f"far{k}", doc))
        for command in (["detect"], ["ridge", "classify"]):
            corpus.add(f"far{k}/{'-'.join(command)}", command + [path, "--quantize-eps", eps], doc)
        target = {j + 1: F(rng.randint(-3, 3)) for j in range(len(coords))}
        doc = _ridge_doc(coords, [(1, 0), (0, 1)], target)
        path = str(corpus.write(f"far{k}-target", doc))
        corpus.add(f"far{k}/represent", ["represent", path, "--quantize-eps", "1/1000"], doc)


def _report_cert(payload) -> L.ClosedPathCertificate:
    return L.ClosedPathCertificate(tuple(payload["support"]), tuple(F(x) for x in payload["lambda"]))


def _check_report(argv: list[str], doc: dict | None, res: CliResult) -> list[str]:
    """Check a CLI report against the instance it was run on."""
    if res.code not in (0, 1):
        return [f"exit code {res.code}: {res.err.strip()}"]
    try:
        report = json.loads(res.out)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    command = report.get("command")
    if command == "ridge-hypercube":
        return _check_hypercube(report, res)
    if command == "generate":
        return _check_generate(report, res)
    inst = _decode(doc, _eps_of(argv))
    inc = L.build_incidence(inst.points, inst.family)
    if command == "detect":
        cert = report["certificate"]
        reasons = [] if res.code == (1 if cert else 0) else ["exit code disagrees with the verdict"]
        if (cert is None) != (L.detect(inc) is None):
            reasons.append("CLI detect disagrees with the library on the same family")
        return reasons + ([] if cert is None else _certs_ok(inc, [_report_cert(cert)]))
    if command == "circuits":
        certs = [_report_cert(c) for c in report["circuits"]]
        reasons = [] if res.code == (1 if certs else 0) else ["exit code disagrees with the verdict"]
        return reasons + _certs_ok(inc, certs) + _minimal_ok(inc, certs)
    if command == "represent":
        return _check_represent(report, res, inst, inc)
    if command == "ridge-classify":
        return _check_classify(report, res, inc)
    return [f"unexpected report command {command!r}"]


def _check_represent(report, res, inst: _Instance, inc) -> list[str]:
    target = inst.target
    if report["representable"]:
        if res.code != 0:
            return ["exit code disagrees with the verdict"]
        g = [{F(v): F(x) for v, x in t["values"].items()} for t in report["g_tables"]]
        for pid in inc.point_ids:
            total = sum(g[i].get(inst.family.tables[i][pid], F(0)) for i in range(inst.family.r))
            if total != target[pid]:
                return [f"g-tables do not sum to the target at point {pid}"]
        if not L.representable_by_orthogonality(inc, target):
            return ["orthogonality cross-check says the target is not representable"]
        return []
    reasons = [] if res.code == 1 else ["exit code disagrees with the verdict"]
    cert = _report_cert(report["violation"])
    reasons += _certs_ok(inc, [cert])
    value = L.evaluate_certificate(cert, target)
    if value == 0 or value != F(report["inner_product"]):
        reasons.append("violated functional does not evaluate to the reported inner product")
    if L.representable_by_orthogonality(inc, target):
        reasons.append("orthogonality cross-check says the target is representable")
    signs = {int(k): F(v) for k, v in report["witness_f0"].items()}
    expected = {pid: F(0) for pid in inc.point_ids}
    expected.update({pid: F(1 if lam > 0 else -1) for pid, lam in zip(cert.support, cert.lam)})
    if signs != expected or F(report["witness_value"]) != sum(abs(x) for x in cert.lam):
        reasons.append("witness is not the sign function of the violated path")
    return reasons


def _check_classify(report, res, inc) -> list[str]:
    kind = report["classification"]
    reasons = [] if res.code == (0 if kind == "interpolable" else 1) else ["exit code disagrees with the verdict"]
    has_path = L.detect(inc) is not None
    if (kind != "interpolable") != has_path:
        message = f"ridge classify says {kind}, detect on the same family {'finds' if has_path else 'finds no'} closed path"
        reasons.append(f"{KNOWN_DEFECT}: {message}" if report.get("quantize_merges") else message)
    if report["certificate"] is not None:
        reasons += _certs_ok(inc, [_report_cert(report["certificate"])])
    if kind == "MNI" and not all(F(x) for x in report["m"]):
        reasons.append("MNI vector m has a zero entry")
    return reasons


def _check_hypercube(report, res) -> list[str]:
    inst = _decode(report["instance"], None)
    inc = L.build_incidence(inst.points, inst.family)
    lam = tuple(F(x) for x in report["lambda"])
    reasons = [] if res.code == 0 else ["exit code disagrees with the verdict"]
    reasons += _certs_ok(inc, [L.ClosedPathCertificate(inst.points.ids, lam)])
    if len(lam) != 2 ** len(report["offsets"]):
        reasons.append("a hypercube path has 2^r points")
    return reasons


def _check_generate(report, res) -> list[str]:
    inst = _decode(report["instance"], None)
    inc = L.build_incidence(inst.points, inst.family)
    reasons = [] if res.code == 0 else ["exit code disagrees with the verdict"]
    if report["closed_path"] or L.detect(inc) is not None:
        reasons.append("a generated path-free sample has a closed path")
    return reasons


def _cli_summary(res: CliResult) -> Any:
    """Verdict, supports, integer lambdas, g-tables and points of a report; not its bytes."""
    try:
        report = json.loads(res.out)
    except json.JSONDecodeError:
        return {"exit": res.code}

    def cert(payload):
        return None if payload is None else [payload["support"], payload["lambda"]]

    summary = {"exit": res.code, "command": report.get("command")}
    for key in ("closed_path", "count", "truncated", "representable", "g_tables", "freedom",
                "inner_product", "witness_f0", "classification", "m", "lambda", "offsets"):
        if key in report:
            summary[key] = report[key]
    for key in ("certificate", "violation"):
        if key in report:
            summary[key] = cert(report[key])
    if "circuits" in report:
        summary["circuits"] = [cert(c) for c in report["circuits"]]
    if "instance" in report:
        summary["instance_points"] = report["instance"]["points"]
    if "quantize_merges" in report:
        summary["quantize_merges"] = report["quantize_merges"]
    return summary
