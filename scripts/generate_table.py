"""Assemble the bundled table of prime alternating knots through 8 crossings.

Rational entries are built from their positive twist sequences, three
entries are Montesinos sums of rotated rational tangles, and the three
remaining 8-crossing knots are alternating 3-braid closures identified by
their determinants (35, 37, 45 are unique among prime alternating knots
through 8 crossings).  Every entry is checked: crossing count, knot (one
component), alternating, reduced, prime, and the classical determinant.

For entries whose flype orbit contains a second canonical form, a
"-flyped" variant reached by one flype is added and tagged, giving
ready-made same-knot pairs of canonically distinct diagrams.

Run from the repository root:  python scripts/generate_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from taitkit.codecs import serialize_pd, parse_pd_text
from taitkit.construct import braid_closure, montesinos_diagram, rational_diagram
from taitkit.diagram import (
    build_from_crossing_list, is_alternating, is_prime_diagram, is_reduced, writhe,
)
from taitkit.flype import apply_flype, find_flype_sites
from taitkit.goeritz import link_determinant
from taitkit.orbit import canonical_code

RATIONAL = {
    "3_1": ([3], 3),
    "4_1": ([2, 2], 5),
    "5_1": ([5], 5),
    "5_2": ([3, 2], 7),
    "6_1": ([4, 2], 9),
    "6_2": ([3, 1, 2], 11),
    "6_3": ([2, 1, 1, 2], 13),
    "7_1": ([7], 7),
    "7_2": ([5, 2], 11),
    "7_3": ([4, 3], 13),
    "7_4": ([3, 1, 3], 15),
    "7_5": ([3, 2, 2], 17),
    "7_6": ([2, 2, 1, 2], 19),
    "7_7": ([2, 1, 1, 1, 2], 21),
    "8_1": ([6, 2], 13),
    "8_2": ([5, 1, 2], 17),
    "8_3": ([4, 4], 17),
    "8_4": ([4, 1, 3], 19),
    "8_6": ([3, 3, 2], 23),
    "8_7": ([4, 1, 1, 2], 23),
    "8_8": ([2, 3, 1, 2], 25),
    "8_9": ([3, 1, 1, 3], 25),
    "8_11": ([3, 2, 1, 2], 27),
    "8_12": ([2, 2, 2, 2], 29),
    "8_13": ([3, 1, 1, 1, 2], 29),
    "8_14": ([2, 2, 1, 1, 2], 31),
}

MONTESINOS = {
    "8_5": ([[3], [3], [2]], 21),
    "8_10": ([[3], [2, 1], [2]], 27),
    "8_15": ([[2, 1], [2, 1], [2]], 33),
}

# alternating 3-braid block patterns (powers of s1 and s2^-1, alternating)
BRAID = {
    "8_16": ((1, 1, 1, 2, 1, 2), 35),
    "8_17": ((1, 1, 1, 1, 2, 2), 37),
    "8_18": ((1, 1, 1, 1, 1, 1, 1, 1), 45),
}

HOPF_PD = [(4, 1, 3, 2), (2, 3, 1, 4)]

OUT = Path(__file__).resolve().parent.parent / "src" / "taitkit" / "data" / "alternating_upto8.json"


def braid_from_blocks(blocks):
    word = []
    for i, a in enumerate(blocks):
        word += [1 if i % 2 == 0 else -2] * a
    return braid_closure(word)


def check(name: str, diagram, crossings: int, det: int, components: int = 1):
    assert diagram.n == crossings, f"{name}: {diagram.n} crossings"
    assert diagram.num_components == components, f"{name}: components"
    assert is_alternating(diagram), f"{name}: not alternating"
    assert is_reduced(diagram), f"{name}: not reduced"
    assert is_prime_diagram(diagram), f"{name}: not prime"
    got = link_determinant(diagram)
    assert got == det, f"{name}: determinant {got}, expected {det}"


def entry(name: str, diagram, det: int, extra_tags=None) -> dict:
    pd = parse_pd_text(serialize_pd(diagram))
    rebuilt = build_from_crossing_list(pd)
    assert canonical_code(rebuilt) == canonical_code(diagram), f"{name}: round trip"
    tags = {
        "determinant": str(det),
        "crossings": str(diagram.n),
        "components": str(diagram.num_components),
        "writhe": str(writhe(diagram)),
    }
    tags.update(extra_tags or {})
    return {"name": name, "pd": [list(t) for t in pd], "tags": tags}


def table_text() -> str:
    """The bundled table's JSON text, built and checked from scratch."""
    entries = []
    diagrams = {}

    for name, (seq, det) in sorted(RATIONAL.items()):
        d = rational_diagram(seq)
        check(name, d, sum(seq), det)
        diagrams[name] = (d, det)
    for name, (seqs, det) in sorted(MONTESINOS.items()):
        d = montesinos_diagram(seqs)
        check(name, d, sum(sum(s) for s in seqs), det)
        diagrams[name] = (d, det)
    for name, (blocks, det) in sorted(BRAID.items()):
        d = braid_from_blocks(blocks)
        check(name, d, sum(blocks), det)
        diagrams[name] = (d, det)

    def sort_key(name: str) -> tuple[int, int]:
        a, b = name.split("_")
        return int(a), int(b)

    for name in sorted(diagrams, key=sort_key):
        d, det = diagrams[name]
        entries.append(entry(name, d, det))

    hopf = build_from_crossing_list(HOPF_PD)
    check("hopf", hopf, 2, 2, components=2)
    entries.append(entry("hopf", hopf, 2))

    # same-knot variants one flype away, where a flype changes the code
    for name in sorted(diagrams, key=sort_key):
        d, det = diagrams[name]
        base = canonical_code(d)
        for site in find_flype_sites(d):
            child = apply_flype(d, site)
            if canonical_code(child) != base:
                check(name + "-flyped", child, d.n, det)
                entries.append(entry(name + "-flyped", child, det,
                                     {"same_as": name}))
                break

    body = ",\n".join(json.dumps(e, separators=(", ", ": ")) for e in entries)
    return "[\n" + body + "\n]\n"


def main() -> None:
    text = table_text()
    entries = json.loads(text)
    variants = sum("same_as" in e["tags"] for e in entries)
    OUT.write_text(text)
    print(f"wrote {len(entries)} entries ({variants} flyped variants) to {OUT}")


if __name__ == "__main__":
    main()
