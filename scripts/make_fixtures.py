#!/usr/bin/env python3
"""Regenerate the instance fixtures and their golden machine reports.

Writes fixtures/*.json (instance documents) and fixtures/expected/*.json
(the expected --output report of one CLI command per fixture). The test
suite compares CLI output bytes against these files, so regenerating them
is only appropriate together with a deliberate format change.

With --check nothing is written: the corpus is built in a temporary
directory and compared byte for byte with fixtures/; the files that differ,
are missing or were not generated are listed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from linsuper.cli import instance_to_jsonable, main, render_report
from linsuper.model import coordinate_points
from linsuper.ridge import (
    ParallelLinesParams,
    ZigzagParams,
    direction,
    generate_pathfree_example,
    hypercube_path,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # the canonical instances live with the tests
from examples import broken_line  # noqa: E402

FIXTURES = ROOT / "fixtures"
EXPECTED = FIXTURES / "expected"

F = Fraction


def basis_directions(d):
    return tuple(direction([1 if i == k else 0 for i in range(d)]) for k in range(d))


def build_instances() -> dict[str, dict]:
    docs: dict[str, dict] = {}

    five = coordinate_points(
        [
            (F(0), F(0), F(0)),
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
            (F(1), F(1), F(1)),
        ]
    )
    docs["five_point_path"] = instance_to_jsonable(five, directions=basis_directions(3))

    six = coordinate_points(
        [
            (F(0), F(0), F(0)),
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
            (F(1), F(1), F(1)),
            (F(0), F(1), F(1)),
        ]
    )
    docs["six_point_path"] = instance_to_jsonable(six, directions=basis_directions(3))

    grid = coordinate_points([(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))])
    docs["grid"] = instance_to_jsonable(grid, directions=basis_directions(2))

    stair = coordinate_points(
        [
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ]
    )
    docs["staircase"] = instance_to_jsonable(stair, directions=basis_directions(3))

    kh_points, kh_family = broken_line(25)
    docs["broken_line25"] = instance_to_jsonable(kh_points, family=kh_family)

    # the sign function of the five-point path: not representable, inner product 6
    witness_target = {1: F(1), 2: F(-1), 3: F(-1), 4: F(-1), 5: F(1)}
    docs["five_point_witness"] = instance_to_jsonable(
        five, directions=basis_directions(3), target=witness_target
    )

    # a built superposition on the same points: f = 3*x1 - x2 + 5*x3
    member_target = {
        p.id: 3 * p.coords[0] - p.coords[1] + 5 * p.coords[2] for p in five.points
    }
    docs["five_point_member"] = instance_to_jsonable(
        five, directions=basis_directions(3), target=member_target
    )

    cube = hypercube_path(
        (direction((1, 0)), direction((0, 1)), direction((1, 1))), (F(0), F(0)), F(1, 8)
    )
    docs["hypercube_plane"] = instance_to_jsonable(
        cube.instance.points, directions=cube.instance.directions
    )

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
    docs["parallel_lines"] = instance_to_jsonable(
        lines.instance.points, directions=lines.instance.directions
    )

    zig = generate_pathfree_example("zigzag", ZigzagParams(count=24, step=F(1, 2)))
    docs["zigzag"] = instance_to_jsonable(
        zig.instance.points, directions=zig.instance.directions
    )

    return docs


# fixture name -> (report suffix, argv before the instance path, argv after, exit code)
GOLDEN_RUNS = {
    "five_point_path": ("detect", ["detect"], [], 1),
    "six_point_path": (
        "circuits",
        ["circuits"],
        ["--mode", "exhaustive", "--max-support", "6"],
        1,
    ),
    "grid": ("ridge-classify", ["ridge", "classify"], [], 1),
    "staircase": ("detect", ["detect"], [], 0),
    "broken_line25": ("detect", ["detect"], [], 0),
    "five_point_witness": ("represent", ["represent"], [], 1),
    "five_point_member": ("represent", ["represent"], [], 0),
    "hypercube_plane": ("detect", ["detect"], [], 1),
    "parallel_lines": ("detect", ["detect"], [], 0),
    "zigzag": ("detect", ["detect"], [], 0),
}


def generate(fixtures: Path) -> list[str] | None:
    """Write the corpus under `fixtures`; the paths written, relative to it,
    or None when a golden command exits with an unexpected code."""
    (fixtures / "expected").mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in build_instances().items():
        (fixtures / f"{name}.json").write_text(render_report(doc))
        written.append(f"{name}.json")
    for name, (suffix, before, after, expected_exit) in GOLDEN_RUNS.items():
        out = f"expected/{name}__{suffix}.json"
        argv = before + [str(fixtures / f"{name}.json")] + after + ["--output", str(fixtures / out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != expected_exit:
            print(f"FAIL: {name} exited {code}, expected {expected_exit}")
            return None
        written.append(out)
    return written


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        built = Path(tmp)
        written = generate(built)
        if written is None:
            return 1
        committed = {str(p.relative_to(FIXTURES)) for p in FIXTURES.glob("*.json")}
        committed |= {str(p.relative_to(FIXTURES)) for p in EXPECTED.glob("*.json")}
        problems = [f"not generated: fixtures/{rel}" for rel in sorted(committed - set(written))]
        for rel in written:
            if rel not in committed:
                problems.append(f"missing: fixtures/{rel}")
            elif (FIXTURES / rel).read_bytes() != (built / rel).read_bytes():
                problems.append(f"differs: fixtures/{rel}")
    for line in problems:
        print(line)
    if not problems:
        print(f"{len(written)} fixture files match")
    return 1 if problems else 0


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check fixtures/.")
    parser.add_argument("--check", action="store_true", help="compare with fixtures/ and write nothing")
    if parser.parse_args(argv).check:
        return check()
    written = generate(FIXTURES)
    for rel in written or ():
        print(f"wrote fixtures/{rel}")
    return 0 if written is not None else 1


if __name__ == "__main__":
    sys.exit(run())
