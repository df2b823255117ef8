"""Checks of each command's output that do not depend on labels.

Every check takes the exit code and the output (the ``--output`` file, or
standard output for ``flype-check``) and returns a list of problems; an
empty list means the item passed.
The committed ``reference.json`` (written by ``make_reference.py`` at the
commit the benchmark was defined on) holds what no formula here gives:
the size of each mutant pair's orbit, the first invariant that tells each
distinguished pair apart, and the determinants of braid closures.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

EXIT_OK = 0
EXIT_INCONCLUSIVE = 3


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_DET = re.compile(r"\|det\| = (\d+) vs (\d+)")


def check_invariants(code, output: str, item, reference: dict) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    results = json.loads(output)
    expected = dict(item.expect["determinants"])
    for name, key in item.expect["reference_determinants"].items():
        expected[name] = reference["determinants"][key]
    problems = []
    if sorted(r["name"] for r in results) != sorted(expected):
        problems.append("output entries differ from the table entries")
    for result in results:
        name = result["name"]
        failed = [c["check"] for c in result["report"] if not c["pass"]]
        if not result["pass"] or failed:
            problems.append(f"{name}: checks failed {failed}")
        dets = [_DET.fullmatch(c["detail"]) for c in result["report"]
                if c["check"] == "determinants_agree"]
        if len(dets) != 1 or dets[0] is None:
            problems.append(f"{name}: no determinants_agree detail")
            continue
        got = {int(dets[0].group(1)), int(dets[0].group(2))}
        if got != {expected.get(name)}:
            problems.append(f"{name}: |det| {sorted(got)}, expected {expected.get(name)}")
    return problems


def expected_flype_line(item, reference: dict) -> str:
    verdict = item.expect["verdict"]
    if verdict == "related":
        return "Related"
    if verdict == "distinguished":
        return f"DistinguishedByInvariant({reference['distinguished'][item.expect['reference']]})"
    explored = reference["orbit_sizes"][item.expect["reference"]]
    return f"NotRelatedWithin({explored} diagrams, exhaustive)"


def check_flype(code, output: str, item, reference: dict) -> list[str]:
    line = output.strip()
    expected_code = EXIT_INCONCLUSIVE if line.endswith("truncated)") else EXIT_OK
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code} for {line!r}, expected {expected_code}")
    expected = expected_flype_line(item, reference)
    if line != expected:
        problems.append(f"printed {line!r}, expected {expected!r}")
    return problems


CHECKS = {"invariants": check_invariants, "flype-check": check_flype}
