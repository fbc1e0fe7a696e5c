"""Correctness gate: compare one task's outcome with its constructed verdict.

The gate never compares against report bytes frozen at some commit, so a
legitimate change of failure witnesses is not counted as a failure.  Report
bytes are compared only within one run: across its passes (see ``Ledger``).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from workloads import ALL_PASS, INTEGRABILITY, Task

_TEXT_STATUS = re.compile(r"^\s+\[\s*(pass|fail|skip|info)\] (\S+)", re.M)
PENCIL = ("pencil-linear-flatness", "pencil-quadratic-flatness")


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced; ``error`` names an uncaught exception."""

    exit: Optional[int]
    stdout: str
    stderr: str
    report: Optional[bytes] = None
    error: str = ""

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (repr(self.exit), self.stdout, self.stderr):
            h.update(part.encode() + b"\0")
        h.update(self.report or b"")
        return h.hexdigest()


def check_statuses(stdout: str) -> Dict[str, str]:
    """Per-check statuses of a ``check`` report in either format."""
    text = stdout.lstrip()
    if text.startswith("{"):
        return {c["id"]: c["status"] for c in json.loads(text)["checks"]}
    return {cid: status for status, cid in _TEXT_STATUS.findall(stdout)}


def problems(task: Task, outcome: Outcome) -> List[str]:
    """Everything wrong with ``outcome``; empty when the verdict matches."""
    if outcome.error:
        return [f"uncaught exception {outcome.error}"]
    found: List[str] = []
    expected_exit = task.expect.exit
    if task.expect.checks:
        try:
            statuses = check_statuses(outcome.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable check report: {exc}"]
        if not statuses:
            return ["no check statuses in the report"]
        failing = {cid for cid, status in statuses.items() if status == "fail"}
        if task.expect.checks == ALL_PASS and failing:
            found.append(f"checks failed: {sorted(failing)}")
        if task.expect.checks == INTEGRABILITY:
            if statuses.get("structure-symmetric") != "pass":
                found.append("structure-symmetric did not pass")
            five = "five-term-integrability" in failing
            pencil = any(cid in failing for cid in PENCIL)
            if five != pencil:
                found.append(f"five-term failed={five} but pencil failed={pencil}")
        if expected_exit is None:
            expected_exit = 1 if failing else 0
    if outcome.exit != expected_exit:
        found.append(f"exit {outcome.exit}, expected {expected_exit}")
    if expected_exit == 2 and not outcome.stderr.startswith("error:"):
        found.append("input error without an error message")
    if task.report is not None and outcome.exit != 2 \
            and outcome.report != outcome.stdout.encode():
        found.append("--report file differs from stdout")
    return found


class Ledger:
    """Report digests per task across the passes of one run."""

    def __init__(self) -> None:
        self.first: Dict[str, str] = {}

    def problems(self, task: Task, outcome: Outcome) -> List[str]:
        found = problems(task, outcome)
        digest = outcome.digest()
        if self.first.setdefault(task.key, digest) != digest:
            found.append("output bytes differ from an earlier pass")
        return found
