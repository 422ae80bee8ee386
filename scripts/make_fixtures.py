#!/usr/bin/env python3
"""Regenerate the instance fixtures and their golden machine reports.

Writes fixtures/*.json (instance documents) and fixtures/expected/*.json
(the expected --output report of one CLI command per fixture). The test
suite compares CLI output bytes against these files, so regenerating them
is only appropriate together with a deliberate format change.
"""

from __future__ import annotations

import contextlib
import io
import sys
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


def write(path: Path, doc: dict) -> None:
    path.write_text(render_report(doc))
    print(f"wrote {path.relative_to(ROOT)}")


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


def run() -> int:
    FIXTURES.mkdir(exist_ok=True)
    EXPECTED.mkdir(exist_ok=True)
    docs = build_instances()
    for name, doc in docs.items():
        write(FIXTURES / f"{name}.json", doc)
    for name, (suffix, before, after, expected_exit) in GOLDEN_RUNS.items():
        instance = FIXTURES / f"{name}.json"
        out = EXPECTED / f"{name}__{suffix}.json"
        argv = before + [str(instance)] + after + ["--output", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != expected_exit:
            print(f"FAIL: {name} exited {code}, expected {expected_exit}")
            return 1
        print(f"wrote {out.relative_to(ROOT)} (exit {code})")
    return 0


if __name__ == "__main__":
    sys.exit(run())
