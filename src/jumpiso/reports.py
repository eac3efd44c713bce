"""Report objects shared by the theorem engines and the CLI."""

from __future__ import annotations

import csv
import hashlib
import io
import json
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
    """Outcome of one theorem engine run on one instance.

    ``checks`` rows carry {claim, lhs, rhs, slack, witness, tol}; the report
    passes iff every recorded slack clears its tolerance.
    """

    theorem: str
    inputs_digest: str = ""
    derived: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, claim, slack, tol=1e-9, **extra):
        row = {"claim": claim, "slack": slack, "tol": tol}
        row.update(extra)
        self.checks.append(row)
        return row

    def note(self, text: str):
        self.notes.append(text)

    @property
    def passed(self) -> bool:
        for row in self.checks:
            s = row["slack"]
            if isinstance(s, float) and math.isnan(s):
                return False
            if s < -row["tol"]:
                return False
        return True

    @property
    def worst_slack(self) -> float:
        slacks = [row["slack"] for row in self.checks
                  if isinstance(row["slack"], (int, float)) and row["slack"] != math.inf]
        return min(slacks) if slacks else math.inf

    def to_dict(self) -> dict:
        return _jsonable({
            "theorem": self.theorem,
            "inputs_digest": self.inputs_digest,
            "pass": self.passed,
            "worst_slack": self.worst_slack,
            "derived": self.derived,
            "checks": self.checks,
            "notes": self.notes,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def summary_csv(rows) -> str:
    """CSV of (instance, theorem, pass, worst_slack) tuples."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["instance", "theorem", "pass", "worst_slack"])
    for inst, thm, ok, slack in rows:
        w.writerow([inst, thm, int(bool(ok)), repr(float(slack))])
    return buf.getvalue()
