#!/usr/bin/env python3
"""Walk through the package's main analyses on the canonical instances.

Run from the repository root:  python3 scripts/run_examples.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from linsuper import (
    ClosedPathCertificate,
    build_incidence,
    certify_minimal,
    classify_ni,
    decompose_functional,
    detect,
    direction,
    enumerate_minimal,
    hypercube_path,
    is_representable,
    make_witness,
    ridge_instance,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))  # instances and checks
from examples import broken_line, five_point_path, six_point_path, unit_grid  # noqa: E402
from permissibility import verify_permissible_implication  # noqa: E402

F = Fraction


def show(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def section(title: str) -> None:
    print()
    print(f"== {title} ==")


def main() -> None:
    section("five points of the cube: a minimal closed path")
    ps, ff = five_point_path()
    inc = build_incidence(ps, ff)
    cert = detect(inc)
    print("points:", [tuple(map(int, p.coords)) for p in ps.points])
    print("closed path on ids", cert.support, "with lambda", show(cert.integer_lambda()))
    result = certify_minimal(inc, cert.support)
    print("minimal:", result.is_minimal, "normalized", show(result.certificate.lam))

    section("adding (0,1,1): still a path, no longer minimal")
    ps6, ff6 = six_point_path()
    inc6 = build_incidence(ps6, ff6)
    result6 = certify_minimal(inc6, inc6.point_ids)
    print("minimal:", result6.is_minimal, "- counterexample subset:", result6.counterexample)
    lam6 = tuple(F(x) for x in (3, -1, -1, -2, 2, -1))
    decomposition = decompose_functional(inc6, ClosedPathCertificate(inc6.point_ids, lam6))
    print("decomposing", show(lam6), "into minimal functionals:")
    for coeff, term in decomposition.terms:
        print(f"  {coeff} * G{term.support}")
    print("all minimal paths:", [c.support for c in enumerate_minimal(inc6, 6, "exhaustive")])

    section("representability and the sign witness")
    witness = make_witness(cert, ps)
    print("witness table:", {k: int(v) for k, v in witness.f0.items()}, "value", witness.value)
    outcome = is_representable(inc, witness.f0)
    print("witness representable:", outcome.representable,
          "- violated inner product:", outcome.violation_value)
    member = {p.id: 3 * p.coords[0] - p.coords[1] + 5 * p.coords[2] for p in ps.points}
    outcome = is_representable(inc, member)
    print("a built superposition is representable:", outcome.representable,
          "(freedom:", str(outcome.decomposition.freedom) + ")")

    section("permissive-class check on the broken line (25 vertices)")
    psk, ffk = broken_line(25)
    inck = build_incidence(psk, ffk)
    import random

    rng = random.Random(0)
    probes = [
        {pid: F(rng.randint(-9, 9), rng.randint(1, 5)) for pid in psk.ids} for _ in range(20)
    ]
    report = verify_permissible_implication(inck, probes)
    print("branch:", report.branch, "- probes representable:",
          f"{report.probes_representable}/{report.probes_total}")

    section("ridge interpolation: the 2x2 grid is MNI")
    grid_ps, _ = unit_grid()
    verdict = classify_ni(ridge_instance((direction((1, 0)), direction((0, 1))), grid_ps))
    print("classification:", verdict.kind, "with m =", show(verdict.m))

    section("hypercube path around an interior point (r=3 in the plane)")
    path = hypercube_path(
        (direction((1, 0)), direction((0, 1)), direction((1, 1))), (F(0), F(0)), F(1, 8)
    )
    print("offsets:", [show(b) for b in path.offsets])
    print("2^3 points with signs", show(path.lam))
    inc_cube = build_incidence(path.instance.points, path.instance.family)
    witness = make_witness(path.certificate(), path.instance.points)
    print("its witness is representable:",
          is_representable(inc_cube, witness.f0).representable)


if __name__ == "__main__":
    main()
