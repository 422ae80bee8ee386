"""Command-line surface: instance files in, verdicts and certificates out.

Machine-readable reports are deterministic JSON documents (sorted keys, all
rationals as exact "p/q" strings); identical inputs and options produce
byte-identical reports. Exit codes carry the verdict: 0/1 per command, 2 for
usage or parse errors (a value too large to print included), 3 for an
internal invariant violation (a certificate that failed its own
re-verification) or any other unexpected error; neither should ever happen.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .errors import (
    ConstraintError,
    ContractViolationError,
    InputValidationError,
    InternalInvariantError,
)
from .model import (
    FunctionFamily,
    Point,
    PointSet,
    QuantizeMerge,
    build_incidence,
    quantize_family,
)
from .paths import (
    ClosedPathCertificate,
    detect,
    enumerate_minimal,
    verify_certificate,
)
from .rationals import format_rational, parse_rational
from .represent import is_representable, make_witness
from .ridge import (
    Direction,
    ParallelLinesParams,
    RidgeInstance,
    StaircaseParams,
    TransversalCurveParams,
    ZigzagParams,
    classify_ni,
    direction,
    generate_pathfree_example,
    hypercube_path,
    ridge_instance,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Options:
    mode: str = "fundamental"
    max_support: int = 8
    quantize_eps: Fraction | None = None


@dataclass(frozen=True)
class InstanceDocument:
    """Parsed instance file: the point set, the function family, and extras."""

    points: PointSet
    family: FunctionFamily
    directions: tuple[Direction, ...] | None
    target: dict[int, Fraction] | None
    options: Options
    quantize_merges: tuple[QuantizeMerge, ...] = ()


def _reject_float(literal: str) -> None:
    raise InputValidationError(
        f"non-integer numeric literal {literal!r}: write exact values as strings, "
        'e.g. "1/3" or "0.25"'
    )


def parse_instance_text(text: str) -> InstanceDocument:
    """Parse an instance document; its family is left as written."""
    doc = json.loads(text, parse_float=_reject_float)
    if not isinstance(doc, dict):
        raise InputValidationError("instance document must be a JSON object")
    version = doc.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise InputValidationError(f"unsupported format version {version!r}")

    raw_points = doc.get("points")
    if not isinstance(raw_points, list):
        raise InputValidationError('instance needs a "points" list')
    points = []
    for k, entry in enumerate(raw_points):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputValidationError(f'points[{k}] must be an object with an "id"')
        pid = entry["id"]
        if not isinstance(pid, int) or isinstance(pid, bool):
            raise InputValidationError(f"points[{k}].id must be an integer, got {pid!r}")
        coords = None
        if entry.get("coords") is not None:
            coords = _json_vector(entry["coords"], f"points[{k}].coords")
        points.append(Point(pid, coords))
    point_set = PointSet(tuple(points))
    known = set(point_set.ids)

    functions = doc.get("functions")
    if not isinstance(functions, dict) or "kind" not in functions:
        raise InputValidationError('instance needs a "functions" object with a "kind"')
    directions: tuple[Direction, ...] | None = None
    if functions["kind"] == "tabulated":
        tables_raw = functions.get("tables")
        if not isinstance(tables_raw, list) or not tables_raw:
            raise InputValidationError('tabulated functions need a nonempty "tables" list')
        tables = []
        for i, table_raw in enumerate(tables_raw):
            if not isinstance(table_raw, dict):
                raise InputValidationError(f"functions.tables[{i}] must be an object")
            table = _id_table(table_raw, f"functions.tables[{i}]", known)
            missing = [pid for pid in point_set.ids if pid not in table]
            if missing:
                raise InputValidationError(f"function {i} misses values for point ids {missing}")
            tables.append(table)
        family = FunctionFamily(tuple(tables))
    elif functions["kind"] == "ridge":
        dirs_raw = functions.get("directions")
        if not isinstance(dirs_raw, list) or not dirs_raw:
            raise InputValidationError('ridge functions need a nonempty "directions" list')
        directions = tuple(direction(_json_vector(v, f"functions.directions[{i}]")) for i, v in enumerate(dirs_raw))
        family = ridge_instance(directions, point_set).family
    else:
        raise InputValidationError(f"unknown functions kind {functions['kind']!r}")

    target = None
    if doc.get("target") is not None:
        if not isinstance(doc["target"], dict):
            raise InputValidationError('"target" must be an object mapping point ids to values')
        target = _id_table(doc["target"], "target", known)

    return InstanceDocument(point_set, family, directions, target, _parse_options(doc.get("options")))


def _json_vector(raw: Any, where: str) -> tuple[Fraction, ...]:
    """A JSON list of rationals; a string or a number is not a vector."""
    if not isinstance(raw, list):
        raise InputValidationError(f"{where} must be a list of rationals, got {type(raw).__name__}")
    return tuple(_field_rational(c, where, k) for k, c in enumerate(raw))


def _field_rational(value: Any, where: str, key: int | str) -> Fraction:
    """parse_rational, with the field where[key] it was read from named in its error."""
    try:
        return parse_rational(value)
    except InputValidationError as exc:
        raise InputValidationError(f"{where}[{key!r}]: {exc}") from None


def _id_table(raw: dict, where: str, known: set[int]) -> dict[int, Fraction]:
    """A JSON object mapping ids of known points, written as str(id), to rationals."""
    table = {}
    for key, value in raw.items():
        try:
            pid = int(key)
        except ValueError:
            pid = None
        if pid is None or key != str(pid):
            raise InputValidationError(f"{where} key {key[:20]!r}{'...' if len(key) > 20 else ''} is not a point id")
        if pid not in known:
            raise InputValidationError(f"{where} mentions unknown point id {pid}")
        table[pid] = _field_rational(value, where, key)
    return table


def _parse_options(raw: Any) -> Options:
    if raw is None:
        return Options()
    if not isinstance(raw, dict):
        raise InputValidationError('"options" must be an object')
    known = {"mode", "max_support", "quantize_eps"}
    unknown = set(raw) - known
    if unknown:
        raise InputValidationError(f"unknown options {sorted(unknown)}")
    mode = raw.get("mode", "fundamental")
    if mode not in ("fundamental", "exhaustive"):
        raise InputValidationError(f"options.mode must be fundamental or exhaustive, got {mode!r}")
    max_support = raw.get("max_support", 8)
    if not isinstance(max_support, int) or isinstance(max_support, bool) or max_support < 2:
        raise InputValidationError("options.max_support must be an integer >= 2")
    eps = raw.get("quantize_eps")
    quantize_eps = parse_rational(eps) if eps is not None else None
    return Options(mode, max_support, quantize_eps)


def load_instance(path: str | Path) -> InstanceDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputValidationError(f"cannot read instance file {path}: {exc}") from None
    try:
        return parse_instance_text(text)
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _quantized(doc: InstanceDocument, flag_eps: str | None) -> InstanceDocument:
    """The family quantized in one pass, by the flag's eps if given, else by
    `options.quantize_eps`; the document records that eps and its merges."""
    options = doc.options
    if flag_eps is not None:
        options = replace(options, quantize_eps=parse_rational(flag_eps))
    if options.quantize_eps is None:
        return doc
    family, merges = quantize_family(doc.family, options.quantize_eps)
    return replace(doc, family=family, options=options, quantize_merges=merges)


def instance_to_jsonable(
    points: PointSet,
    *,
    directions: Sequence[Direction] | None = None,
    family: FunctionFamily | None = None,
    target: dict[int, Fraction] | None = None,
) -> dict:
    doc: dict[str, Any] = {"format": FORMAT_VERSION}
    doc["points"] = [
        {"id": p.id}
        if p.coords is None
        else {"id": p.id, "coords": [format_rational(c) for c in p.coords]}
        for p in points.points
    ]
    if directions is not None:
        doc["functions"] = {
            "kind": "ridge",
            "directions": [[format_rational(c) for c in d.vector] for d in directions],
        }
    elif family is not None:
        doc["functions"] = {
            "kind": "tabulated",
            "tables": [
                {str(pid): format_rational(table[pid]) for pid in points.ids}
                for table in family.tables
            ],
        }
    else:
        raise ValueError("either directions or family is required")
    if target is not None:
        doc["target"] = {str(pid): format_rational(v) for pid, v in target.items()}
    return doc


def _options_jsonable(options: Options) -> dict:
    return {
        "mode": options.mode,
        "max_support": options.max_support,
        "quantize_eps": None
        if options.quantize_eps is None
        else format_rational(options.quantize_eps),
    }


def _certificate_jsonable(cert: ClosedPathCertificate) -> dict:
    return {
        "support": list(cert.support),
        "lambda": [format_rational(x) for x in cert.integer_lambda()],
        "lambda_normalized": [format_rational(x) for x in cert.normalized_lambda()],
        "minimal": cert.minimal,
    }


def _merges_jsonable(merges: Sequence[QuantizeMerge]) -> list[dict]:
    return [
        {
            "function": m.function_index,
            "original": format_rational(m.original),
            "replacement": format_rational(m.replacement),
        }
        for m in merges
    ]


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _vector_text(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(format_rational(x) for x in values) + ")"


def _resolve_options(options: Options, args: argparse.Namespace) -> Options:
    """The file's options with every flag given on the command line replacing its field."""
    flags = {name: getattr(args, name, None) for name in ("mode", "max_support")}
    options = replace(options, **{name: v for name, v in flags.items() if v is not None})
    if options.max_support < 2:
        raise InputValidationError("--max-support must be at least 2")
    return options


Outcome = tuple[dict, list[str], int]  # report fields, human lines, exit code


def _detect(doc: InstanceDocument, options: Options, args: argparse.Namespace) -> Outcome:
    inc = build_incidence(doc.points, doc.family)
    cert = detect(inc)
    fields = {
        "points": len(doc.points),
        "closed_path": cert is not None,
        "certificate": None if cert is None else _certificate_jsonable(cert),
    }
    if cert is None:
        return fields, ["no closed path: every function on these points is a superposition"], 0
    verify_certificate(inc, cert)
    human = [
        f"closed path on point ids {list(cert.support)}",
        "lambda = " + _vector_text(cert.integer_lambda()),
    ]
    return fields, human, 1


def _circuits(doc: InstanceDocument, options: Options, args: argparse.Namespace) -> Outcome:
    inc = build_incidence(doc.points, doc.family)
    certs = enumerate_minimal(inc, options.max_support, options.mode)
    for cert in certs:
        verify_certificate(inc, cert)
    truncated = options.mode == "exhaustive" and options.max_support < len(doc.points)
    fields = {
        "points": len(doc.points),
        "count": len(certs),
        "circuits": [_certificate_jsonable(c) for c in certs],
        "truncated": truncated,
    }
    human = [f"{len(certs)} minimal closed path(s) ({options.mode} mode)"]
    for cert in certs:
        human.append(
            f"  support {list(cert.support)}: lambda = " + _vector_text(cert.integer_lambda())
        )
    if truncated:
        human.append(f"note: enumeration capped at support size {options.max_support}")
    return fields, human, 1 if certs else 0


def _represent(doc: InstanceDocument, options: Options, args: argparse.Namespace) -> Outcome:
    if doc.target is None:
        raise InputValidationError('represent needs a "target" table in the instance file')
    inc = build_incidence(doc.points, doc.family)
    result = is_representable(inc, doc.target)
    if result.representable:
        dec = result.decomposition
        g_tables = [
            {
                "function": i,
                "values": {format_rational(v): format_rational(g) for v, g in table.items()},
            }
            for i, table in enumerate(dec.tables)
        ]
        fields = {"representable": True, "g_tables": g_tables, "freedom": dec.freedom}
        human = [
            "representable: target = sum of univariate tables (reconstruction exact)",
            f"solution affine space dimension: {dec.freedom}",
        ]
        return fields, human, 0
    verify_certificate(inc, result.violation)
    witness = make_witness(result.violation, doc.points)
    fields = {
        "representable": False,
        "violation": _certificate_jsonable(result.violation),
        "inner_product": format_rational(result.violation_value),
        "witness_f0": {str(pid): format_rational(v) for pid, v in witness.f0.items()},
        "witness_value": format_rational(witness.value),
    }
    human = [
        "not representable: a closed-path functional does not vanish on the target",
        f"violated support {list(result.violation.support)}, "
        f"inner product {format_rational(result.violation_value)}",
    ]
    return fields, human, 1


def _classify(doc: InstanceDocument, options: Options, args: argparse.Namespace) -> Outcome:
    if doc.directions is None:
        raise InputValidationError("this command needs ridge directions in the instance file")
    verdict = classify_ni(RidgeInstance(doc.directions, doc.points, doc.family))
    fields = {
        "classification": verdict.kind,
        "m": None if verdict.m is None else [format_rational(x) for x in verdict.m],
        "certificate": None
        if verdict.certificate is None
        else _certificate_jsonable(verdict.certificate),
    }
    human = [f"classification: {verdict.kind}"]
    if verdict.m is not None:
        human.append("m = " + _vector_text(verdict.m))
    return fields, human, 0 if verdict.kind == "interpolable" else 1


def _hypercube(doc: InstanceDocument, options: Options, args: argparse.Namespace) -> Outcome:
    if doc.directions is None:
        raise InputValidationError("hypercube needs ridge directions in the instance file")
    d = doc.directions[0].dimension
    center = _vector(args.center) if args.center else [0] * d
    path = hypercube_path(doc.directions, center, parse_rational(args.scale))
    fields = {
        "center": [format_rational(c) for c in path.center],
        "offsets": [[format_rational(c) for c in off] for off in path.offsets],
        "points": [
            [format_rational(c) for c in p.coords] for p in path.instance.points.points
        ],
        "lambda": [format_rational(x) for x in path.lam],
        "verified": True,
        "instance": instance_to_jsonable(path.instance.points, directions=path.instance.directions),
    }
    human = [
        f"hypercube closed path with {len(path.lam)} points (verified exactly)",
        "lambda = " + _vector_text(path.lam),
    ]
    return fields, human, 0


def _vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(c) for c in text.split(","))


def _parse_vectors(text: str) -> list[tuple[Fraction, ...]]:
    vectors = [_vector(chunk) for chunk in map(str.strip, text.split(";")) if chunk]
    if not vectors:
        raise InputValidationError(f"no vectors in {text!r}")
    return vectors


def _directions(text: str) -> tuple[Direction, ...]:
    return tuple(direction(v) for v in _parse_vectors(text))


_SAMPLED = {"samples": 8, "start": "0", "step": "1"}
# generate kind -> the flags it reads, by argparse dest, with their defaults
_GENERATE_FLAGS: dict[str, dict[str, Any]] = {
    "parallel-lines": {"directions": "1,0;0,1", "line_direction": "1,1", "base1": "0,0", "base2": "0,1", **_SAMPLED},
    "zigzag": _SAMPLED,
    "staircase": {"directions": None, "dimension": 3},
    "transversal-curve": {"directions": "1,0;0,1", "coefficients": "0,1;1,2", **_SAMPLED},
}


def _generate(args: argparse.Namespace) -> Outcome:
    """Build the sample from the flags its kind reads; any other flag given exits 2."""
    kind = args.kind
    reads = _GENERATE_FLAGS[kind]
    given = {d for flags in _GENERATE_FLAGS.values() for d in flags if getattr(args, d) is not None}
    unread = sorted(given - reads.keys())
    if unread:
        flags = ["--" + d.replace("_", "-") for d in (unread[0], *reads)]
        raise InputValidationError(f"{flags[0]} does not apply to kind {kind}, which reads {', '.join(flags[1:])}")
    vars(args).update({d: default for d, default in reads.items() if d not in given})
    params: Any
    if kind == "zigzag":
        params = ZigzagParams(count=args.samples, start=parse_rational(args.start), step=parse_rational(args.step))
    elif kind == "staircase":
        if args.directions:
            directions = _directions(args.directions)
            if "dimension" in given and {d.dimension for d in directions} != {args.dimension}:
                raise InputValidationError(f"--dimension {args.dimension} does not match the dimension of --directions")
        else:
            d = args.dimension
            directions = tuple(direction([1 if i == k else 0 for i in range(d)]) for k in range(d))
        params = StaircaseParams(directions)
    elif kind == "parallel-lines":
        params = ParallelLinesParams(
            directions=_directions(args.directions),
            line_direction=_vector(args.line_direction),
            base_first=_vector(args.base1),
            base_second=_vector(args.base2),
            samples_per_line=args.samples,
            start=parse_rational(args.start),
            step=parse_rational(args.step),
        )
    else:  # transversal-curve: argparse allows no other kind
        params = TransversalCurveParams(
            directions=_directions(args.directions),
            coefficients=tuple(_parse_vectors(args.coefficients)),
            count=args.samples,
            start=parse_rational(args.start),
            step=parse_rational(args.step),
        )

    example = generate_pathfree_example(kind, params)
    fields = {
        "kind": kind,
        "note": example.note,
        "closed_path": False,
        "points": len(example.instance.points),
        "instance": instance_to_jsonable(
            example.instance.points, directions=example.instance.directions
        ),
    }
    human = [
        f"generated {kind} sample with {len(example.instance.points)} points",
        f"detect: no closed path ({example.note})",
    ]
    return fields, human, 0


def _run(args: argparse.Namespace) -> int:
    """Load the instance, quantize it once if the command reads its family,
    analyse it, add the shared keys, emit."""
    start = time.perf_counter()
    report: dict[str, Any] = {"format": FORMAT_VERSION, "command": args.report}
    if "instance" not in args:  # generate builds its sample from flags alone
        fields, human, code = _generate(args)
    else:
        doc = load_instance(args.instance)
        # the commands that take --quantize-eps are the ones that read the family
        quantize = "quantize_eps" in args
        if quantize:
            doc = _quantized(doc, args.quantize_eps)
        options = _resolve_options(doc.options, args)
        fields, human, code = args.analyse(doc, options, args)
        report["options"] = _options_jsonable(options)
        if quantize:
            report["quantize_merges"] = _merges_jsonable(doc.quantize_merges)
            human = [
                f"QUANTIZE: function {m.function_index} value "
                f"{format_rational(m.original)} merged into {format_rational(m.replacement)}"
                for m in doc.quantize_merges
            ] + human
    report.update(fields)
    if getattr(args, "emit_instance", None):
        Path(args.emit_instance).write_text(render_report(fields["instance"]))
    if args.output:
        Path(args.output).write_text(render_report(report))
    if args.json:
        sys.stdout.write(render_report(report))
    else:
        for line in human:
            print(line)
        print(f"elapsed: {(time.perf_counter() - start) * 1000:.1f} ms")
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves it unchanged and its defaults are immutable."""
    parser = argparse.ArgumentParser(
        prog="linsuper",
        description="Exact closed-path analysis of linear superpositions on finite point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="print the machine report to stdout")
        p.add_argument("--output", metavar="PATH", help="write the machine report to a file")

    def instance_command(parent, name, report, analyse, help, quantize=True):
        p = parent.add_parser(name, help=help)
        p.add_argument("instance")
        output_flags(p)
        if quantize:
            p.add_argument(
                "--quantize-eps",
                metavar="Q",
                default=None,
                help="cluster function values closer than Q (exact rational) before analysis; "
                "replaces options.quantize_eps",
            )
        p.set_defaults(report=report, analyse=analyse)
        return p

    instance_command(
        sub, "detect", "detect", _detect, "find one closed path or prove there is none"
    )
    p_circ = instance_command(
        sub, "circuits", "circuits", _circuits, "enumerate minimal closed paths"
    )
    p_circ.add_argument("--mode", choices=["fundamental", "exhaustive"], default=None)
    p_circ.add_argument("--max-support", type=int, default=None, dest="max_support")
    instance_command(
        sub, "represent", "represent", _represent, "decide representability of the target table"
    )

    p_ridge = sub.add_parser("ridge", help="ridge-direction analyses")
    ridge_sub = p_ridge.add_subparsers(dest="action", required=True)
    instance_command(
        ridge_sub, "classify", "ridge-classify", _classify, "interpolable / NI / MNI verdict"
    )
    p_hyp = instance_command(
        ridge_sub,
        "hypercube",
        "ridge-hypercube",
        _hypercube,
        "build the hypercube closed path for the instance's ridge directions",
        quantize=False,
    )
    p_hyp.add_argument("--center", default=None, help='center coordinates, e.g. "0,0"')
    p_hyp.add_argument("--scale", default="1", help="offset scale (exact rational)")
    p_hyp.add_argument(
        "--emit-instance", dest="emit_instance", metavar="PATH",
        help="write the generated points as an instance file",
    )

    p_gen = sub.add_parser("generate", help="emit a provably path-free sample configuration")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=["parallel-lines", "zigzag", "staircase", "transversal-curve"],
    )
    # no defaults: _generate applies those of the kind and rejects the flags it never reads
    p_gen.add_argument("--directions", help='e.g. "1,0;0,1"')
    p_gen.add_argument("--dimension", type=int, help="staircase: use basis directions of this dimension (default 3)")
    p_gen.add_argument("--line-direction", dest="line_direction")
    p_gen.add_argument("--base1")
    p_gen.add_argument("--base2")
    p_gen.add_argument("--coefficients", help='curve polynomials, e.g. "0,1;1,2"')
    p_gen.add_argument("--samples", type=int)
    p_gen.add_argument("--start")
    p_gen.add_argument("--step")
    p_gen.add_argument(
        "--emit-instance", dest="emit_instance", metavar="PATH",
        help="write the generated sample as an instance file",
    )
    output_flags(p_gen)
    p_gen.set_defaults(report="generate")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (InputValidationError, ConstraintError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must not read as a verdict
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
