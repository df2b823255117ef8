"""Byte-identity gate: the ``invariants`` report, every bundled entry's
flype orbit, the map data of a fixed list of constructed diagrams and the
outcome of every flype candidate on the small bundled entries must match
the recorded golden outputs exactly, and the bundled table must
regenerate byte for byte.

Regenerate the golden files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from taitkit.cli import main
from taitkit.codecs import BUNDLED_TABLE, load_bundled_table
from taitkit.construct import braid_closure, montesinos_diagram, rational_diagram
from taitkit.diagram import PreconditionFailed, mirror_diagram
from taitkit.flype import FlypeSite, _resolve_tangle, apply_flype, find_flype_sites
from taitkit.orbit import flype_orbit

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_INVARIANTS = DATA / "golden_invariants.json"
GOLDEN_ORBITS = DATA / "golden_orbits.json"
GOLDEN_CONSTRUCTED = DATA / "golden_constructed.json"
GOLDEN_CANDIDATES = DATA / "golden_flype_candidates.json"
TABLE_PATH = str(resources.files("taitkit.data").joinpath(BUNDLED_TABLE))
ORBIT_LIMITS = {"max_nodes": 200, "max_depth": 60}
CANDIDATE_MAX_CROSSINGS = 7


def invariants_report(path: Path) -> str:
    assert main(["invariants", "--input", TABLE_PATH, "--output", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def orbit_digests() -> dict[str, str]:
    return {
        doc.name: hashlib.sha256(
            flype_orbit(doc.build(), **ORBIT_LIMITS).dumps().encode()).hexdigest()
        for doc in load_bundled_table()
    }


# knots and multi-component links from every builder in ``construct``
CONSTRUCTED = {
    **{f"rational {seq}": (rational_diagram, seq) for seq in (
        [2], [4], [2, 2], [2, 1, 2], [2, 2, 2], [3, 1, 3], [4, 2], [2] * 6,
        [3, 2, 1, 2])},
    **{f"montesinos {seqs}": (montesinos_diagram, seqs) for seqs in (
        [[2], [2], [2]], [[3], [3], [2]], [[2, 1], [3], [2, 2]],
        [[2], [2], [2], [2]])},
    **{f"braid {word}": (braid_closure, word) for word in (
        [1, -2] * 3, [1, -2] * 2, [1, 1, 1, -2, 1, -2], [1, 1, -2, -2])},
}


def map_fields(d) -> str:
    return repr((d.n, d.partner, d.over_even, d.edge_label, d.forward, d.component))


def constructed_digests() -> dict[str, str]:
    """sha256 of the map data of each constructed diagram, its mirror and
    the child of each of its flype sites, in that order."""
    out = {}
    for name, (build, arg) in CONSTRUCTED.items():
        d = build(arg)
        family = [d, mirror_diagram(d)]
        try:
            family += [apply_flype(d, site) for site in find_flype_sites(d)]
        except PreconditionFailed:
            pass
        text = "\n".join(map_fields(x) for x in family)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def flype_candidate_digests() -> dict[str, str]:
    """sha256, per bundled entry with at most ``CANDIDATE_MAX_CROSSINGS``
    crossings, of the ``apply_flype`` outcome (map data, or exception type
    and message) for every ``(crossing, side, e_n, e_s)`` on the entry and
    then on its mirror whose ``_resolve_tangle`` is not None, legal site or
    not."""
    out = {}
    for doc in load_bundled_table():
        d = doc.build()
        if d.n > CANDIDATE_MAX_CROSSINGS:
            continue
        lines = []
        for x in (d, mirror_diagram(d)):
            edges = x.edges()
            for c in range(x.n):
                for s in range(4):
                    for e_n in edges:
                        for e_s in edges:
                            tangle = _resolve_tangle(x, edges, c, s, e_n, e_s)
                            if tangle is None:
                                continue
                            try:
                                child = apply_flype(
                                    x, FlypeSite(c, s, (e_n, e_s), tangle))
                            except Exception as exc:
                                lines.append(f"{type(exc).__name__}: {exc}")
                            else:
                                lines.append(map_fields(child))
        out[doc.name] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


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


def test_constructed_diagrams_match_golden():
    expected = json.loads(GOLDEN_CONSTRUCTED.read_text(encoding="utf-8"))
    assert constructed_digests() == expected


def test_flype_candidates_match_golden():
    expected = json.loads(GOLDEN_CANDIDATES.read_text(encoding="utf-8"))
    assert flype_candidate_digests() == expected


def test_bundled_table_regenerates():
    spec = importlib.util.spec_from_file_location(
        "generate_table", ROOT / "scripts" / "generate_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.table_text() == Path(TABLE_PATH).read_text(encoding="utf-8")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    invariants_report(GOLDEN_INVARIANTS)
    for path, digests in ((GOLDEN_ORBITS, orbit_digests()),
                          (GOLDEN_CONSTRUCTED, constructed_digests()),
                          (GOLDEN_CANDIDATES, flype_candidate_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
