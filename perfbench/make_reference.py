"""Write ``perfbench/reference.json`` from the taitkit of this checkout.

The reference holds the outputs no formula in ``oracles.py`` gives, keyed by
family spec so that it holds for every seed: the orbit size of the first
diagram of each mutant pair, the invariant that first tells each
distinguished pair apart, and braid-closure determinants.  Run it only at a
commit whose outputs are trusted, from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from taitkit.goeritz import link_determinant  # noqa: E402
from taitkit.orbit import flype_orbit, invariant_vector  # noqa: E402

import generate  # noqa: E402
from oracles import REFERENCE_FILE  # noqa: E402
from run import commit  # noqa: E402


def main() -> None:
    orbit_sizes = {
        generate.spec_key(a): len(flype_orbit(generate.build_spec(a)).members)
        for a, _ in generate.MUTANT_PAIRS
    }
    distinguished = {}
    for n in generate.SWEEP_NS:
        a, b = (invariant_vector(generate.build_spec(s))
                for s in generate.distinguished_pair(n))
        distinguished[f"n{n}"] = next(k for k in a if a[k] != b[k])
    determinants = {
        generate.spec_key(spec): link_determinant(generate.build_spec(spec))
        for spec in generate.TABLE_FAMILIES
        if generate.expected_determinant(spec) is None
    }
    reference = {"commit": commit(), "orbit_sizes": orbit_sizes,
                 "distinguished": distinguished, "determinants": determinants}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
