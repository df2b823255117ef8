"""Byte-identity gate: the ``invariants`` report and every bundled entry's
flype orbit must match the recorded golden outputs exactly.

Regenerate the golden files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from taitkit.cli import main
from taitkit.codecs import BUNDLED_TABLE, load_bundled_table
from taitkit.orbit import flype_orbit

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_INVARIANTS = DATA / "golden_invariants.json"
GOLDEN_ORBITS = DATA / "golden_orbits.json"
TABLE_PATH = str(resources.files("taitkit.data").joinpath(BUNDLED_TABLE))
ORBIT_LIMITS = {"max_nodes": 200, "max_depth": 60}


def invariants_report(path: Path) -> str:
    assert main(["invariants", "--input", TABLE_PATH, "--output", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def orbit_digests() -> dict[str, str]:
    return {
        doc.name: hashlib.sha256(
            flype_orbit(doc.build(), **ORBIT_LIMITS).dumps().encode()).hexdigest()
        for doc in load_bundled_table()
    }


def test_invariants_report_matches_golden(tmp_path):
    expected = GOLDEN_INVARIANTS.read_text(encoding="utf-8")
    assert invariants_report(tmp_path / "report.json") == expected


def test_invariants_report_matches_golden_under_optimize(tmp_path):
    out = tmp_path / "report.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "taitkit.cli", "invariants",
         "--input", TABLE_PATH, "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == GOLDEN_INVARIANTS.read_text(encoding="utf-8")


def test_orbits_match_golden():
    expected = json.loads(GOLDEN_ORBITS.read_text(encoding="utf-8"))
    assert orbit_digests() == expected


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    invariants_report(GOLDEN_INVARIANTS)
    GOLDEN_ORBITS.write_text(
        json.dumps(orbit_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
