"""The finite-fixture check that a span equal to a permissive function class
forces the span to be everything.

If a closed path exists, its sign witness (bounded, and continuous on a
finite discrete set) must be rejected; if none exists, every probe must be
representable. The check covers the given finite instance only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from linsuper import IncidenceMatrix, detect, is_representable, make_witness


@dataclass(frozen=True)
class PermissibilityReport:
    """Outcome of the check: branch is "closed path exists" (the witness is
    rejected) or "no closed paths" (every probe is representable)."""

    branch: str
    witness_rejected: bool | None
    probes_total: int
    probes_representable: int

    @property
    def holds(self) -> bool:
        if self.branch == "closed path exists":
            return bool(self.witness_rejected)
        return self.probes_representable == self.probes_total


def verify_permissible_implication(
    inc: IncidenceMatrix, probes: Sequence[Mapping[int, Fraction]]
) -> PermissibilityReport:
    cert = detect(inc)
    if cert is not None:
        witness = make_witness(cert, inc.point_ids)
        rejected = not is_representable(inc, witness.f0).representable
        return PermissibilityReport("closed path exists", rejected, 0, 0)
    ok = sum(1 for probe in probes if is_representable(inc, probe).representable)
    return PermissibilityReport("no closed paths", None, len(probes), ok)
