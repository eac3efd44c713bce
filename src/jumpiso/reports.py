"""Report objects shared by the theorem engines and the CLI."""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):
        return _jsonable(x.tolist())
    if hasattr(x, "item"):
        return _jsonable(x.item())
    return x


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TheoremReport:
    """Outcome of one theorem engine on one instance, or of one continuum run.

    ``checks`` rows carry {claim, slack}; the report passes iff no slack is
    NaN or below -``tol``, the run's one tolerance, which ``to_dict`` writes
    into every row.  No engine judges a slack: every subcommand exits on
    ``passed``.  Continuum rows hold their allowance in the slack (allowance
    - |value - target|) and are read at tol 0.
    """

    theorem: str
    inputs_digest: str = ""
    derived: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tol: float = 1e-9

    def add(self, claim, slack):
        self.checks.append({"claim": claim, "slack": slack})

    def note(self, text: str):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        for row in self.checks:
            s = row["slack"]
            if isinstance(s, float) and math.isnan(s):
                return False
            if s < -self.tol:
                return False
        return True

    @property
    def worst_slack(self) -> float:
        """The least finite or -inf slack; NaN when any slack is NaN (a
        failed check), whatever the order of the rows."""
        slacks = [row["slack"] for row in self.checks
                  if isinstance(row["slack"], (int, float)) and row["slack"] != math.inf]
        if any(math.isnan(s) for s in slacks):
            return math.nan
        return min(slacks) if slacks else math.inf

    def to_dict(self) -> dict:
        return _jsonable({
            "theorem": self.theorem,
            "inputs_digest": self.inputs_digest,
            "pass": self.passed,
            "worst_slack": self.worst_slack,
            "derived": self.derived,
            "checks": [dict(row, tol=self.tol) for row in self.checks],
            "notes": self.notes,
        })


def summary_csv(rows) -> str:
    """CSV of (instance, theorem, pass, worst_slack) tuples."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["instance", "theorem", "pass", "worst_slack"])
    for inst, thm, ok, slack in rows:
        w.writerow([inst, thm, int(bool(ok)), repr(float(slack))])
    return buf.getvalue()
