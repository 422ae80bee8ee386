import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from linsuper import (
    InputValidationError,
    build_incidence,
    coordinate_points,
    direction,
    parse_rational,
    quantize_family,
    ridge_instance,
    verify_certificate,
)
from linsuper.cli import load_instance, main, parse_instance_text
from linsuper.paths import ClosedPathCertificate
from oracles import oracle_dfs_nodes

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXPECTED = FIXTURES / "expected"

GOLDEN = [
    ("five_point_path", ["detect"], [], 1),
    ("six_point_path", ["circuits"], ["--mode", "exhaustive", "--max-support", "6"], 1),
    ("grid", ["ridge", "classify"], [], 1),
    ("staircase", ["detect"], [], 0),
    ("broken_line25", ["detect"], [], 0),
    ("five_point_witness", ["represent"], [], 1),
    ("five_point_member", ["represent"], [], 0),
    ("hypercube_plane", ["detect"], [], 1),
    ("parallel_lines", ["detect"], [], 0),
    ("zigzag", ["detect"], [], 0),
]


def expected_path(name, before):
    suffix = "ridge-classify" if before[0] == "ridge" else before[0]
    return EXPECTED / f"{name}__{suffix}.json"


@pytest.mark.parametrize("name,before,after,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_reports(tmp_path, capsys, name, before, after, code):
    out = tmp_path / "report.json"
    argv = before + [str(FIXTURES / f"{name}.json")] + after + ["--output", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert out.read_bytes() == expected_path(name, before).read_bytes()


def test_fixture_corpus_regenerates_byte_identical():
    # the instance documents too: hypercube_plane.json comes from hypercube_path
    proc = subprocess.run(
        [sys.executable, "scripts/make_fixtures.py", "--check"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_example_walkthrough_runs():
    proc = subprocess.run(
        [sys.executable, "scripts/run_examples.py"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name,before,after,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_repeated_runs_are_byte_identical(capsys, name, before, after, code):
    argv = before + [str(FIXTURES / f"{name}.json")] + after + ["--json"]
    assert main(argv) == code
    first = capsys.readouterr().out
    assert main(argv) == code
    second = capsys.readouterr().out
    assert first == second


def test_json_flag_matches_output_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["detect", str(FIXTURES / "five_point_path.json"), "--json", "--output", str(out)]
    main(argv)
    printed = capsys.readouterr().out
    assert printed == out.read_text()


def test_report_certificates_reverify():
    for name, before, after, code in GOLDEN:
        report = json.loads(expected_path(name, before).read_text())
        doc = load_instance(FIXTURES / f"{name}.json")
        inc = build_incidence(doc.points, doc.family)
        for payload in _certificates_in(report):
            cert = ClosedPathCertificate(
                tuple(payload["support"]),
                tuple(parse_rational(x) for x in payload["lambda"]),
            )
            verify_certificate(inc, cert)
            normalized = ClosedPathCertificate(
                tuple(payload["support"]),
                tuple(parse_rational(x) for x in payload["lambda_normalized"]),
                normalized=True,
            )
            verify_certificate(inc, normalized)


def _certificates_in(report):
    for key in ("certificate", "violation"):
        if report.get(key):
            yield report[key]
    yield from report.get("circuits", [])


def test_rationals_in_reports_round_trip():
    report = json.loads(expected_path("five_point_witness", ["represent"]).read_text())
    for text in report["violation"]["lambda_normalized"] + [report["inner_product"]]:
        value = parse_rational(text)
        assert str(value) == text


def test_empty_point_list_is_pathfree(tmp_path, capsys):
    doc = {"format": 1, "points": [], "functions": {"kind": "ridge", "directions": [["1", "0"]]}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", str(path)]) == 0
    capsys.readouterr()


def test_represent_on_an_empty_instance_prints_one_g_table_per_function(tmp_path, capsys):
    doc = {"format": 1, "points": [], "functions": {"kind": "tabulated", "tables": [{}, {}, {}]}, "target": {}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["represent", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["g_tables"] == [{"function": i, "values": {}} for i in range(3)]
    assert (report["representable"], report["freedom"]) == (True, 0)


def test_missing_target_is_usage_error(capsys):
    assert main(["represent", str(FIXTURES / "five_point_path.json")]) == 2
    assert "target" in capsys.readouterr().err


def test_float_literal_is_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"points": [{"id": 1}], "functions": {"kind": "tabulated", "tables": [{"1": 0.1}]}}')
    assert main(["detect", str(path)]) == 2
    assert "0.1" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["detect", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["detect", "/nonexistent/instance.json"]) == 2
    capsys.readouterr()


def test_unknown_option_in_instance(tmp_path, capsys):
    # nothing in the package is random, so a seed is an unknown option too
    for name, value in (("speed", "fast"), ("seed", 0)):
        doc = {
            "points": [{"id": 1}],
            "functions": {"kind": "tabulated", "tables": [{"1": "0"}]},
            "options": {name: value},
        }
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(doc))
        assert main(["detect", str(path)]) == 2
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("eps,code", [("-1/100", 2), ("0", 1)], ids=["negative", "zero"])
def test_quantize_eps_is_validated_by_the_quantizer(tmp_path, capsys, source, eps, code):
    doc = json.loads((FIXTURES / "five_point_path.json").read_text())
    path = tmp_path / "instance.json"
    argv = ["detect", str(path), "--json"]
    if source == "flag":
        argv.append(f"--quantize-eps={eps}")
    else:
        doc["options"] = {"quantize_eps": eps}
    path.write_text(json.dumps(doc))
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        # rejected by name, not silently skipped
        assert captured.out == "" and eps in captured.err
        return
    # eps 0 merges nothing and is recorded
    report = json.loads(captured.out)
    assert report["options"]["quantize_eps"] == "0"
    assert report["quantize_merges"] == []
    golden = json.loads((FIXTURES / "expected" / "five_point_path__detect.json").read_text())
    assert report["certificate"] == golden["certificate"]


def test_quantize_merges_are_reported(tmp_path, capsys):
    doc = {
        "points": [{"id": 1}, {"id": 2}, {"id": 3}],
        "functions": {
            "kind": "tabulated",
            "tables": [{"1": "1/3", "2": "0.3333333333", "3": "2"}],
        },
    }
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", str(path), "--quantize-eps", "1/1000000", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(report["quantize_merges"]) == 1
    merge = report["quantize_merges"][0]
    # the cluster minimum is the representative
    assert merge["original"] == "1/3"
    assert merge["replacement"] == "3333333333/10000000000"
    # without the explicit pass the values stay distinct and nothing merges
    assert main(["detect", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quantize_merges"] == []


def test_quantize_merge_prominent_in_human_output(tmp_path, capsys):
    doc = {
        "points": [{"id": 1}, {"id": 2}],
        "functions": {"kind": "tabulated", "tables": [{"1": "1/3", "2": "0.3333333333"}]},
    }
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    main(["detect", str(path), "--quantize-eps", "1/1000000"])
    out = capsys.readouterr().out
    assert "QUANTIZE" in out


def test_generate_emits_instance_that_feeds_back(tmp_path, capsys):
    emitted = tmp_path / "stairs.json"
    argv = [
        "generate",
        "--kind",
        "staircase",
        "--dimension",
        "3",
        "--emit-instance",
        str(emitted),
        "--json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["closed_path"] is False
    assert main(["detect", str(emitted)]) == 0
    capsys.readouterr()


def test_ridge_classify_builds_the_incidence_once(monkeypatch, capsys):
    # classify_ni verifies its certificate on the matrix it built itself
    import linsuper.cli
    import linsuper.ridge

    calls = []

    def counting(*args):
        calls.append(args)
        return build_incidence(*args)

    for module in (linsuper.cli, linsuper.ridge):
        monkeypatch.setattr(module, "build_incidence", counting)
    assert main(["ridge", "classify", str(FIXTURES / "grid.json"), "--json"]) == 1
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["classification"] == "MNI"


@pytest.mark.parametrize(
    "argv",
    [
        ["ridge", "generate", "--kind", "zigzag"],
        ["generate", "--kind", "zigzag", "--seed", "1"],
        ["generate", "--kind", "zigzag", "--quantize-eps", "1/100"],
        ["ridge", "hypercube", str(FIXTURES / "grid.json"), "--quantize-eps", "1/100"],
        ["detect", str(FIXTURES / "five_point_path.json"), "--seed", "1"],
    ],
    ids=["ridge-generate", "generate-seed", "generate-quantize-eps", "hypercube-quantize-eps", "detect-seed"],
)
def test_ridge_generate_and_unread_flags_are_usage_errors(capsys, argv):
    # generate is a top-level command only; generate reports no options,
    # hypercube never reads the family, and nothing reads a seed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


# Unquantized every x-class of this near-grid is a single point. At eps 1/100
# the x-value 1001/1000 merges into 1 and points 1-4 close a path; 21/20 joins
# that cluster only at eps >= 49/1000, so a file eps of 1/10 under a flag of
# 1/100 tells one quantize pass from two.
NEAR_GRID = [(0, 0), (0, 1), (1, 0), (Fraction(1001, 1000), 1), (Fraction(21, 20), 2)]


@pytest.mark.parametrize(
    "flag_eps,file_eps", [("1/100", None), (None, "1/100"), ("1/100", "1/10")],
    ids=["flag", "file", "both"],
)
def test_every_command_agrees_on_the_quantized_near_grid(tmp_path, capsys, flag_eps, file_eps):
    doc = {
        "format": 1,
        "points": [
            {"id": k + 1, "coords": [str(x), str(y)]} for k, (x, y) in enumerate(NEAR_GRID)
        ],
        "functions": {"kind": "ridge", "directions": [["1", "0"], ["0", "1"]]},
        # the sign function of the closed path, which no superposition matches
        "target": {"1": "1", "2": "-1", "3": "-1", "4": "1", "5": "0"},
    }
    if file_eps is not None:
        doc["options"] = {"quantize_eps": file_eps}
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    eps = flag_eps or file_eps
    points = coordinate_points([(Fraction(x), Fraction(y)) for x, y in NEAR_GRID])
    family = ridge_instance([direction((1, 0)), direction((0, 1))], points).family
    inc = build_incidence(points, quantize_family(family, parse_rational(eps))[0])
    flag = [] if flag_eps is None else ["--quantize-eps", flag_eps]
    for command in (["detect"], ["circuits"], ["represent"], ["ridge", "classify"]):
        assert main(command + [str(path), "--json"] + flag) == 1, command
        report = json.loads(capsys.readouterr().out)
        assert report["options"]["quantize_eps"] == eps
        assert report["quantize_merges"] == [
            {"function": 0, "original": "1001/1000", "replacement": "1"}
        ]
        payloads = list(_certificates_in(report))
        assert payloads, command
        for payload in payloads:
            lam = tuple(parse_rational(x) for x in payload["lambda"])
            verify_certificate(inc, ClosedPathCertificate(tuple(payload["support"]), lam))


def test_python_dash_m_entry_point():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "linsuper", *argv],
            cwd=ROOT, env=env, capture_output=True, timeout=60,
        )

    proc = run("detect", "fixtures/five_point_path.json", "--json")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (EXPECTED / "five_point_path__detect.json").read_bytes()
    assert run("ridge", "generate", "--kind", "zigzag").returncode == 2


def test_hypercube_emits_verified_instance(tmp_path, capsys):
    emitted = tmp_path / "cube.json"
    argv = [
        "ridge",
        "hypercube",
        str(FIXTURES / "grid.json"),
        "--center",
        "0,0",
        "--scale",
        "1/8",
        "--emit-instance",
        str(emitted),
        "--json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    assert main(["detect", str(emitted)]) == 1
    capsys.readouterr()


def test_generated_hypercube_lambda_reverifies(capsys):
    argv = [
        "ridge",
        "hypercube",
        str(FIXTURES / "grid.json"),
        "--center",
        "3,4",
        "--scale",
        "2",
        "--json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    doc = parse_instance_text(json.dumps(report["instance"]))
    inc = build_incidence(doc.points, doc.family)
    cert = ClosedPathCertificate(
        doc.points.ids, tuple(parse_rational(x) for x in report["lambda"])
    )
    verify_certificate(inc, cert)


def test_tabulated_and_ridge_agree_on_broken_line(tmp_path, capsys):
    # broken_line25 is tabulated; the same points under basis directions must
    # produce the identical detect verdict
    doc = json.loads((FIXTURES / "broken_line25.json").read_text())
    ridge_doc = {
        "format": 1,
        "points": doc["points"],
        "functions": {"kind": "ridge", "directions": [["1", "0"], ["0", "1"]]},
    }
    path = tmp_path / "bl_ridge.json"
    path.write_text(json.dumps(ridge_doc))
    assert main(["detect", str(path)]) == 0
    capsys.readouterr()


def test_instance_parse_rejects_bad_shapes(tmp_path):
    from linsuper import InputValidationError

    bad_docs = [
        '{"points": "nope", "functions": {"kind": "tabulated", "tables": [{}]}}',
        '{"points": [], "functions": {"kind": "mystery"}}',
        '{"points": [{"id": 1}], "functions": {"kind": "tabulated", "tables": []}}',
        '{"points": [{"id": 1}], "functions": {"kind": "tabulated", "tables": [{"2": "0"}]}}',
        '{"points": [{"id": "x"}], "functions": {"kind": "tabulated", "tables": [{}]}}',
        '{"format": 99, "points": [], "functions": {"kind": "tabulated", "tables": [{}]}}',
    ]
    for text in bad_docs:
        with pytest.raises(InputValidationError):
            parse_instance_text(text)


def test_target_unknown_id_rejected(tmp_path):
    from linsuper import InputValidationError

    text = json.dumps(
        {
            "points": [{"id": 1}],
            "functions": {"kind": "tabulated", "tables": [{"1": "0"}]},
            "target": {"7": "1"},
        }
    )
    with pytest.raises(InputValidationError, match="unknown point id 7"):
        parse_instance_text(text)


@pytest.mark.parametrize("flags", [[], ["--quantize-eps", "1/2"]], ids=["exact", "quantized"])
def test_table_unknown_id_rejected(tmp_path, capsys, flags):
    # the value on point 99, which does not exist, would join the values of
    # points 1 and 2 into one cluster at eps 1/2
    doc = {
        "points": [{"id": 1}, {"id": 2}],
        "functions": {"kind": "tabulated", "tables": [{"1": "0", "2": "1", "99": "1/2"}]},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", str(path), *flags]) == 2
    assert "functions.tables[0] mentions unknown point id 99" in capsys.readouterr().err


@pytest.mark.parametrize(
    "functions,coords,where",
    [
        ({"kind": "ridge", "directions": [["1", "0"], ["0", "1"]]}, "12", "points[0].coords"),
        ({"kind": "ridge", "directions": [["1", "0"], ["0", "1"]]}, 5, "points[0].coords"),
        ({"kind": "ridge", "directions": ["10", ["0", "1"]]}, ["1", "2"], "functions.directions[0]"),
        ({"kind": "ridge", "directions": [["1", "0"], 7]}, ["1", "2"], "functions.directions[1]"),
    ],
    ids=["coords-string", "coords-number", "direction-string", "direction-number"],
)
def test_instance_vectors_must_be_lists(tmp_path, capsys, functions, coords, where):
    # a string would be read digit by digit, a number would raise a TypeError
    doc = {"points": [{"id": 1, "coords": coords}, {"id": 2, "coords": ["3", "4"]}], "functions": functions}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", str(path)]) == 2
    assert f"{where} must be a list of rationals" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1_0"])
@pytest.mark.parametrize("field", ["table", "target"])
def test_point_id_keys_must_be_canonical(tmp_path, capsys, key, field):
    # "01" would silently overwrite the value of point 1, "1_0" would name point 10
    canonical = str(int(key))
    table = {"1": "0", "2": "0", "10": "0"}
    target = {"1": "1", "2": "0", "10": "0"}
    edited = table if field == "table" else target
    edited[key] = edited.pop(canonical)
    doc = {
        "points": [{"id": 1}, {"id": 2}, {"id": 10}],
        "functions": {"kind": "tabulated", "tables": [table]},
        "target": target,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["represent", str(path)]) == 2
    assert f"key {key!r} is not a point id" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["table", "target"])
def test_rejected_key_is_clipped_in_the_error(tmp_path, capsys, field):
    # the whole key used to be echoed: a 200,000-character key made a 200,052-byte line
    key = "x" * 200_000
    table = {"1": "0", "2": "1"}
    target = {"1": "1", "2": "0"}
    (table if field == "table" else target)[key] = "0"
    doc = {"points": [{"id": 1}, {"id": 2}], "functions": {"kind": "tabulated", "tables": [table]}, "target": target}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["represent", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"key {'x' * 20!r}... is not a point id" in err
    assert len(err) < 200


@pytest.mark.parametrize(
    "edit,where",
    [
        (lambda doc: doc["points"][0].update(coords=[[1], "0"]), "points[0].coords[0]"),
        (lambda doc: doc["points"][1].update(coords=["0", "1/0"]), "points[1].coords[1]"),
        (lambda doc: doc["functions"]["directions"][1].__setitem__(0, {"x": 1}), "functions.directions[1][0]"),
        (lambda doc: doc["functions"].update(kind="tabulated", tables=[{"1": "0", "2": [1]}]), "functions.tables[0]['2']"),
        (lambda doc: doc["target"].__setitem__("1", "one"), "target['1']"),
    ],
    ids=["coords-list", "coords-zero-denominator", "direction-object", "table-value", "target-value"],
)
def test_an_entry_that_is_not_a_rational_names_its_field(tmp_path, capsys, edit, where):
    doc = {
        "points": [{"id": 1, "coords": ["0", "0"]}, {"id": 2, "coords": ["1", "1"]}],
        "functions": {"kind": "ridge", "directions": [["1", "0"], ["0", "1"]]},
        "target": {"1": "0", "2": "1"},
    }
    edit(doc)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["represent", str(path)]) == 2
    assert f"{where}: cannot parse rational" in capsys.readouterr().err


def test_large_document_with_a_target_parses_in_linear_time():
    # every target id is looked up in a set; scanning the point ids once per
    # entry took 26 s on this document (Python 3.11, two-vCPU x86-64 VM)
    count = 20_000
    text = json.dumps(
        {
            "points": [{"id": pid} for pid in range(1, count + 1)],
            "functions": {"kind": "tabulated", "tables": [{str(pid): str(pid % 7) for pid in range(1, count + 1)}]},
            "target": {str(pid): "1" for pid in range(1, count + 1)},
        }
    )
    start = time.perf_counter()
    doc = parse_instance_text(text)
    assert time.perf_counter() - start < 5
    assert len(doc.target) == count


def test_ridge_hypercube_does_not_quantize_the_family(monkeypatch, tmp_path, capsys):
    # hypercube never reads the family, so an eps it would reject does not matter
    import linsuper.cli

    calls = []

    def counting(*args):
        calls.append(args)
        return quantize_family(*args)

    monkeypatch.setattr(linsuper.cli, "quantize_family", counting)
    doc = json.loads((FIXTURES / "grid.json").read_text())
    doc["options"] = {"quantize_eps": "-1/100"}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    assert main(["ridge", "hypercube", str(path), "--json"]) == 0
    assert calls == []
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    assert report["options"]["quantize_eps"] == "-1/100"
    assert "quantize_merges" not in report


def _five_point_doc() -> dict:
    return json.loads((FIXTURES / "five_point_path.json").read_text())


def _with_huge_coordinate(doc: dict) -> dict:
    doc["points"][0]["coords"][0] = "1e100000"
    return doc


def _with_huge_target(doc: dict) -> dict:
    doc["target"] = {str(p["id"]): "0" for p in doc["points"]}
    doc["target"][str(doc["points"][0]["id"])] = "-2.5e5000"
    return doc


@pytest.mark.parametrize(
    "command,edit,flags",
    [
        ("detect", None, ["--quantize-eps", "1e100000"]),
        ("detect", _with_huge_coordinate, []),
        ("represent", _with_huge_target, []),
    ],
    ids=["flag", "coordinate", "target"],
)
def test_huge_rational_literals_fail_fast(tmp_path, capsys, command, edit, flags):
    # a literal whose value could not be printed is refused at parse time,
    # naming the limit, instead of failing in the report with exit 1
    doc = _five_point_doc()
    if edit is not None:
        doc = edit(doc)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--json", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of 4300 digits" in captured.err


def test_largest_printable_literal_round_trips():
    # digits plus exponent magnitude at the limit still print and parse back
    for text in ("1e4299", "-1e-4299", "7" * 4300, "." + "1" * 4299, "2/" + "3" * 4300):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value


@pytest.mark.parametrize(
    "text",
    ["+3", "-0", " 5 ", "007", "4/2", "-3/6", "1/0", "0/0", "1/-2", "١٢", "²", "1_0", "1e3", "", "/", "1/",
     "7" * 4300, "7" * 4301],
    ids=lambda text: text if len(text) < 10 else f"{len(text)}-digits",
)
def test_literal_fast_path_parses_as_fraction_does(text):
    # the int() route for ASCII "[+-]p" and "[+-]p/q" must give what the
    # size check and Fraction(text) give: the value, or the same message
    from linsuper.rationals import _check_literal_size

    def reference():
        _check_literal_size(text.strip())
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputValidationError(f"cannot parse rational from {text!r}: {exc}") from None

    outcomes = []
    for parse in (lambda: parse_rational(text), reference):
        try:
            outcomes.append(parse())
        except InputValidationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] and type(outcomes[0]) is type(outcomes[1])


def test_integer_literals_take_the_int_route(monkeypatch):
    import linsuper.rationals

    expected = {"+3": 3, "-0": 0, " 5 ": 5, "007": 7, "4/2": 2, "-3/6": Fraction(-1, 2), "7" * 4300: int("7" * 4300)}

    def refuse(text):
        raise AssertionError(f"Fraction({text!r}) was called")

    monkeypatch.setattr(linsuper.rationals, "Fraction", refuse)
    for text, value in expected.items():
        assert parse_rational(text) == value


def test_exhaustive_search_past_its_node_limit_exits_2(monkeypatch, tmp_path, capsys):
    # 40 points, r = 3, values 0-12, default max_support 8: the full search
    # is far past the limit; it stops there, counted in nodes (each asks what
    # its last point closes, whether or not that needs an elimination)
    import random

    import linsuper.paths

    rng = random.Random(40)
    tables = [{str(pid): str(rng.randint(0, 12)) for pid in range(1, 41)} for _ in range(3)]
    doc = {"format": 1, "points": [{"id": pid} for pid in range(1, 41)], "functions": {"kind": "tabulated", "tables": tables}}
    path = tmp_path / "forty.json"
    path.write_text(json.dumps(doc))
    sizes = []
    real = linsuper.paths._closed_by_last

    def counting(inc, candidate, touched):
        sizes.append(len(candidate))
        return real(inc, candidate, touched)

    monkeypatch.setattr(linsuper.paths, "_closed_by_last", counting)
    assert main(["circuits", str(path), "--mode", "exhaustive"]) == 2
    limit = linsuper.paths.EXHAUSTIVE_NODE_LIMIT
    assert limit == 100_000
    assert f"limit of {limit} nodes" in capsys.readouterr().err
    assert len(sizes) == limit and max(sizes) == 8


def test_exhaustive_node_limit_counts_every_node_of_the_search(monkeypatch, tmp_path, capsys):
    # the nodes counted by the oracle: increasing point sequences within one
    # connected part, up to max_support long, whose proper prefix is independent
    import random

    import linsuper.paths

    rng = random.Random(12)
    tables = [{str(pid): str(rng.randint(0, 2)) for pid in range(1, 11)} for _ in range(3)]
    doc = {"format": 1, "points": [{"id": pid} for pid in range(1, 11)], "functions": {"kind": "tabulated", "tables": tables}}
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(doc))
    loaded = load_instance(path)
    nodes = oracle_dfs_nodes(build_incidence(loaded.points, loaded.family), 6)
    assert nodes > 100
    argv = ["circuits", str(path), "--mode", "exhaustive", "--max-support", "6"]
    monkeypatch.setattr(linsuper.paths, "EXHAUSTIVE_NODE_LIMIT", nodes)
    assert main(argv) == 1  # circuits found
    monkeypatch.setattr(linsuper.paths, "EXHAUSTIVE_NODE_LIMIT", nodes - 1)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"limit of {nodes - 1} nodes" in capsys.readouterr().err


def test_hypercube_over_the_direction_limit_exits_2_at_once(tmp_path, capsys):
    from linsuper.ridge import HYPERCUBE_DIRECTION_LIMIT

    r = HYPERCUBE_DIRECTION_LIMIT + 1
    directions = [[str(x) for x in (1, k, k * k % 7 + 1, k**3 % 5)] for k in range(1, r + 1)]
    doc = {"format": 1, "points": [{"id": 1, "coords": ["0"] * 4}], "functions": {"kind": "ridge", "directions": directions}}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["ridge", "hypercube", str(path), "--json"]) == 2
    assert time.perf_counter() - start < 0.5
    assert f"limit of {HYPERCUBE_DIRECTION_LIMIT} directions" in capsys.readouterr().err


def test_parser_is_built_once():
    from linsuper.cli import build_parser

    assert build_parser() is build_parser()


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "human"])
def test_unprintable_derived_value_is_usage_error(tmp_path, capsys, flags):
    # every literal prints, but the level value a . x of point 1 has 6001 digits
    doc = {
        "format": 1,
        "points": [{"id": 1, "coords": ["1e3000", "0"]}, {"id": 2, "coords": ["0", "1"]}],
        "functions": {"kind": "ridge", "directions": [["1e3000", "1"]]},
        "target": {"1": "0", "2": "1"},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["represent", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of 4300 digits" in captured.err
    assert "Traceback" not in captured.err


def test_unexpected_error_exits_3(monkeypatch, capsys):
    import linsuper.cli

    def crash(inc):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(linsuper.cli, "detect", crash)
    assert main(["detect", str(FIXTURES / "five_point_path.json")]) == 3
    err = capsys.readouterr().err
    assert "internal error: ZeroDivisionError: boom" in err


@pytest.mark.parametrize("kind", ["parallel-lines", "zigzag", "transversal-curve"])
@pytest.mark.parametrize(
    "flags,message",
    [(["--step", "0"], "collide"), (["--samples", "-3"], "sample count must be nonnegative")],
    ids=["step-0", "negative-samples"],
)
def test_generate_rejects_degenerate_samples(capsys, kind, flags, message):
    assert main(["generate", "--kind", kind, *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "staircase", "--directions", "1,0;0,1,0"], "mixed dimensions [2, 3]"),
        (["--kind", "parallel-lines", "--directions", "1,0;0,1,0"], "mixed dimensions [2, 3]"),
        (["--kind", "transversal-curve", "--directions", "1,0;0,1,0"], "mixed dimensions [2, 3]"),
        (["--kind", "parallel-lines", "--line-direction", "1,1,1"], "line direction has dimension 3"),
        (["--kind", "parallel-lines", "--base2", "0,1,0"], "second base has dimension 3, directions have 2"),
    ],
    ids=["staircase", "parallel-lines", "transversal-curve", "line-direction", "base"],
)
def test_generate_rejects_mismatched_dimensions(capsys, argv, message):
    assert main(["generate", *argv]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_generate_zigzag_rejects_directions(capsys):
    assert main(["generate", "--kind", "zigzag", "--directions", "1,0;0,1"]) == 2
    assert "--directions does not apply to kind zigzag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--kind", "zigzag", "--line-direction", "1,2,3", "--coefficients", "x"], "--coefficients"),
        (["--kind", "staircase", "--samples", "-3", "--step", "0"], "--samples"),
        (["--kind", "parallel-lines", "--dimension", "2"], "--dimension"),
        (["--kind", "zigzag", "--base1", "0,0"], "--base1"),
        (["--kind", "staircase", "--line-direction", "1,1"], "--line-direction"),
        (["--kind", "transversal-curve", "--base2", "0,1"], "--base2"),
    ],
    ids=["zigzag-two-unread", "staircase-sampling", "parallel-lines", "zigzag", "staircase", "transversal-curve"],
)
def test_generate_rejects_flags_its_kind_never_reads(capsys, argv, flag):
    assert main(["generate", *argv]) == 2
    err = capsys.readouterr().err
    assert f"{flag} does not apply to kind {argv[1]}" in err


@pytest.mark.parametrize("dims", [["--dimension", "2"], ["--dimension", "4"]])
def test_generate_staircase_dimension_must_match_directions(capsys, dims):
    assert main(["generate", "--kind", "staircase", "--directions", "1,0,0;0,1,0;1,1,1", *dims]) == 2
    assert f"--dimension {dims[1]} does not match the dimension of --directions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,points",
    [
        (["--kind", "parallel-lines", "--samples", "5", "--step", "3/2"], 10),
        (["--kind", "parallel-lines", "--samples", "8", "--base2", "0,3"], 16),
        (["--kind", "zigzag", "--samples", "8", "--step", "1/3"], 8),
        (["--kind", "zigzag", "--samples", "16", "--start", "2/3"], 16),
        (["--kind", "staircase", "--dimension", "3", "--directions", "1,0,0;0,1,0;1,1,1"], 4),
        (["--kind", "staircase", "--dimension", "4"], 5),
        (["--kind", "staircase"], 4),
        (["--kind", "transversal-curve", "--samples", "6", "--start", "2", "--coefficients", "0,1;1,2"], 6),
        (["--kind", "transversal-curve", "--samples", "8", "--step", "1/2", "--coefficients", "0,1;0,0,1"], 8),
    ],
)
def test_generate_reads_each_kinds_flags_and_defaults(capsys, argv, points):
    assert main(["generate", *argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["kind"], report["points"], report["closed_path"]) == (argv[1], points, False)
