"""Output checks: experiment text against the recorded reference.

``reference.json`` holds, for the benchmark's scale, the SHA-256 of
the rendered text of every experiment whose text is a pure function of
code and scale (``Experiment.deterministic``), recorded at the commit
that defined the benchmark; wall-clock experiments are listed with
``null`` and only checked for presence.  Cold and warm runs are both
held to it, so they also match each other.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_HEADER = re.compile(r"^== (.*) \(([^()]+)\) ==$")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def parse_blocks(text: str, ids: Iterable[str]) -> Dict[str, str]:
    """Split ``repro all`` output into ``{experiment id: rendered text}``.

    The CLI prints each result as a blank line, ``== Title (id) ==``
    and the text; only headers naming a known id start a block.
    """
    known = set(ids)
    blocks: Dict[str, List[str]] = {}
    current = None
    for line in text.split("\n"):
        match = _HEADER.match(line)
        if match and match.group(2) in known:
            current = blocks.setdefault(match.group(2), [])
            current.clear()
            continue
        if current is not None:
            current.append(line)
    return {eid: "\n".join(lines).rstrip("\n") for eid, lines in blocks.items()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(text: str, reference: dict) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` for one run's stdout.

    Every experiment in the reference is one attempt; a missing block or
    a text whose digest differs from the reference is one failure.
    """
    expected: Dict[str, str] = reference["experiments"]
    blocks = parse_blocks(text, expected)
    problems = []
    for eid, want in expected.items():
        if eid not in blocks:
            problems.append(f"{eid}: missing from output")
        elif want is not None and digest(blocks[eid]) != want:
            problems.append(f"{eid}: text differs from the reference")
    return len(expected), len(problems), problems


def check_profile(served: str, expected: str) -> List[str]:
    """Compare a served ``/profile?format=json`` body with the offline fold."""
    if served == expected:
        return []
    limit = min(len(served), len(expected))
    at = next((i for i in range(limit) if served[i] != expected[i]), limit)
    return [f"served profile differs from the offline fold at byte {at} "
            f"({len(served)} vs {len(expected)} bytes)"]
