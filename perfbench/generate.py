"""Seeded inputs for the taitkit benchmark.

Every workload uses the same families of diagrams from ``taitkit.construct``
on every seed; the seed picks the PD relabelings and the crossing order.
Keeping the families fixed keeps the work in one pass the same across seeds,
so runs with different seeds measure the same thing while the program never
sees the same labels twice.  For the same reason each related pair's flype
walk is drawn from its family's key, not from the seed: how far the walk
ends from its start sets how long the flype-check search runs, and walks
drawn from the seed moved a related pair's time by up to 1.7x between
seeds.

``build_workload`` returns the items of one workload.  Each item is one CLI
command: its argument list, the table it reads, what its output must be,
and a manifest record (family, n, both form dimensions, expected verdict).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from taitkit import construct
from taitkit.codecs import load_bundled_table, parse_pd_text, serialize_pd
from taitkit.diagram import (
    Color,
    Diagram,
    build_from_crossing_list,
    color_chessboard,
    writhe,
)
from taitkit.flype import apply_flype, find_flype_sites
from taitkit.orbit import canonical_code

# Runtime budget, not a property of the mathematics: the unit-vector search
# costs about 5**dim per form, so one dim-8 entry would cost as much as the
# rest of the table.  The dim-6 and dim-7 entries keep that growth visible.
FORM_DIM_CAP = 7

# Generated table_invariants entries, n <= 12, both form dimensions <= 7.
TABLE_FAMILIES = (
    ("rational", (2, 3, 2, 3)),
    ("rational", (3, 2, 1, 2, 3)),
    ("rational", (3, 3, 3, 3)),
    ("rational", (2, 2, 1, 2, 2, 1, 2)),
    ("rational", (4, 4, 4)),
    ("montesinos", ((2, 1), (3,), (2, 2))),
    ("montesinos", ((3, 1), (2, 2), (3,))),
    ("montesinos", ((2, 1), (3, 1), (2,), (3,))),
    ("montesinos", ((2, 2), (2, 2), (2, 2))),
    ("braid3", (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("braid3", (2, 1, 2, 1, 2, 1)),
    ("braid3", (2, 2, 2, 2, 2, 2)),
    ("braid3", (1, 1, 1, 2, 1, 2, 1, 2)),
)

# flype_check related pairs: a seed against one of its flype-walk endpoints
# with another canonical code, n <= 12.  The seeds are twist-region rational
# diagrams and Montesinos sums whose orbits have 4 to 12 members.
RELATED_SEEDS = (
    ("rational", (2, 2, 2, 2)),
    ("rational", (2, 2, 2, 2, 2)),
    ("rational", (2, 1, 2, 1, 2, 1)),
    ("rational", (2, 2, 1, 2, 2)),
    ("montesinos", ((2, 1), (3, 1), (2,))),
    ("montesinos", ((2, 1), (2, 1), (2, 1), (2, 1))),
)

# flype_check not-related pairs: Montesinos sums whose tangle order differs
# by more than a cyclic shift or a reversal.  Both sides share the whole
# invariant vector, so only an exhaustive orbit search decides them.
MUTANT_PAIRS = (
    (("montesinos", ((2,), (3,), (2,), (3,))),
     ("montesinos", ((2,), (2,), (3,), (3,)))),
    (("montesinos", ((2, 1), (3,), (2,), (3,))),
     ("montesinos", ((2, 1), (2,), (3,), (3,)))),
    (("montesinos", ((2, 1), (3,), (2, 2), (3,))),
     ("montesinos", ((2, 1), (2, 2), (3,), (3,)))),
    (("montesinos", ((2, 1), (3, 1), (2, 2), (3,))),
     ("montesinos", ((2, 1), (2, 2), (3, 1), (3,)))),
)

# flype_check distinguished pairs: two rational diagrams with n crossings and
# different determinants, for every even n in the sweep.
SWEEP_NS = tuple(range(10, 51, 2))

WALK_STEPS = 3

Spec = tuple


def spec_key(spec: Spec) -> str:
    """Stable text key of a family spec, used by the committed reference."""
    family, params = spec
    if family == "montesinos":
        body = "/".join(".".join(map(str, seq)) for seq in params)
    else:
        body = ".".join(map(str, params))
    return f"{family}:{body}"


def build_spec(spec: Spec) -> Diagram:
    family, params = spec
    if family == "rational":
        return construct.rational_diagram(list(params))
    if family == "montesinos":
        return construct.montesinos_diagram([list(seq) for seq in params])
    if family == "braid3":
        # alternating 3-braid: blocks of s1 and s2^-1 in turn
        word = []
        for i, power in enumerate(params):
            word += [1 if i % 2 == 0 else -2] * power
        return construct.braid_closure(word)
    raise ValueError(f"unknown family {family!r}")


def expected_determinant(spec: Spec) -> int | None:
    """|det| from the family's own arithmetic, where there is a formula.

    Rational: the continued-fraction numerator.  Montesinos with tangle
    fractions p_i/q_i: sum_i q_i * prod_{j != i} p_j (all terms share a sign
    on these alternating sums).  Braid closures have no formula here; their
    values come from the committed reference.
    """
    family, params = spec
    if family == "rational":
        return construct.continued_fraction(list(params))[0]
    if family == "montesinos":
        fractions = [construct.continued_fraction(list(seq)) for seq in params]
        total = 0
        for i, (_, q) in enumerate(fractions):
            prod = q
            for j, (p, _) in enumerate(fractions):
                if j != i:
                    prod *= p
            total += prod
        return total
    return None


def distinguished_pair(n: int) -> tuple[Spec, Spec]:
    return (("rational", (2,) * (n // 2)),
            ("rational", (3,) + (2,) * ((n - 6) // 2) + (3,)))


def form_dims(d: Diagram) -> list[int]:
    """Dimensions of the two Goeritz forms: one less than the region count
    of each color class."""
    coloring = color_chessboard(d)
    return sorted((coloring.count(Color.BLACK) - 1, coloring.count(Color.WHITE) - 1),
                  reverse=True)


def relabeled_pd(d: Diagram, rng: random.Random) -> list[list[int]]:
    """PD code of ``d`` with fresh edge labels and a shuffled crossing order.

    Each component is numbered consecutively along its stored orientation
    from a random starting edge, so the rebuilt diagram keeps every
    component's direction (and with it the writhe) as long as each component
    has at least three edges.  The slot order of each crossing is the one
    ``codecs.serialize_pd`` writes.
    """
    label: dict[int, int] = {}
    components = list(range(d.num_components))
    rng.shuffle(components)
    for comp in components:
        starts = [x for x in range(d.num_darts)
                  if d.forward[x] and d.component[x] == comp]
        dart = rng.choice(starts)
        while d.edge_label[dart] not in label:
            label[d.edge_label[dart]] = len(label) + 1
            arrive = d.partner[dart]
            dart = d.dart(arrive >> 2, (arrive & 3) + 2)
    crossings = parse_pd_text(serialize_pd(d))
    order = list(range(d.n))
    rng.shuffle(order)
    return [[label[old] for old in crossings[c]] for c in order]


def flype_walk(d: Diagram, rng: random.Random, steps: int = WALK_STEPS) -> Diagram:
    for _ in range(steps):
        sites = find_flype_sites(d)
        if not sites:
            break
        d = apply_flype(d, rng.choice(sites))
    return d


def distinct_walk_end(d: Diagram, rng: random.Random) -> Diagram:
    """A flype-walk endpoint whose canonical code differs from ``d``'s.

    The walk's first step is a random flype that changes the code, and the
    walk falls back to that first diagram if its end comes back to ``d``, so
    the set-up does the same few walk steps whatever the seed.
    """
    code = canonical_code(d)
    sites = list(find_flype_sites(d))
    rng.shuffle(sites)
    first = next(child for child in (apply_flype(d, site) for site in sites)
                 if canonical_code(child) != code)
    end = flype_walk(first, rng, WALK_STEPS - 1)
    return end if canonical_code(end) != code else first


@dataclass
class Item:
    """One CLI command of a workload.

    ``argv`` may hold ``{table}`` and ``{out}``, replaced by the item's
    table and output paths.  One command is one item of work for
    ``throughput_per_s``: one table entry checked or one pair decided.
    """

    name: str
    cls: str
    n: int
    argv: list[str]
    table: list[dict]
    expect: dict
    manifest: dict = field(default_factory=dict)


def _entry(name: str, d: Diagram, rng: random.Random, tags=None) -> dict:
    # a component with two edges may come back reversed; draw again until
    # the writhe shows every component kept its direction
    for _ in range(100):
        pd = relabeled_pd(d, rng)
        if writhe(build_from_crossing_list(pd)) == writhe(d):
            return {"name": name, "pd": pd, "tags": dict(tags or {})}
    raise ValueError(f"{name}: no relabeling keeps the orientation")


def _table_invariants(rng: random.Random) -> list[Item]:
    """One ``invariants`` command per entry of the bundled table and of the
    generated families, so that each command is short enough for the
    calibration kernel around it to see the speed it ran at."""
    entries = []
    for doc in load_bundled_table():
        d = doc.build()
        entries.append((_entry(doc.name, d, rng, doc.tags), d,
                        {"family": "bundled"}, int(doc.tags["determinant"])))
    for spec in TABLE_FAMILIES:
        d = build_spec(spec)
        if d.n > 12 or form_dims(d)[0] > FORM_DIM_CAP:
            raise ValueError(f"{spec_key(spec)} exceeds the table_invariants budget")
        name = "gen-" + spec_key(spec).replace(":", "-").replace("/", "_")
        entries.append((_entry(name, d, rng), d,
                        {"family": spec[0], "spec": spec_key(spec)},
                        expected_determinant(spec) or spec_key(spec)))
    items = []
    for entry, d, record, det in entries:
        name = entry["name"]
        # an int is the determinant; a spec key points into the reference
        expect = ({"determinants": {name: det}, "reference_determinants": {}}
                  if isinstance(det, int) else
                  {"determinants": {}, "reference_determinants": {name: det}})
        items.append(Item(
            name=f"invariants-{name}", cls="table", n=d.n,
            argv=["invariants", "--input", "{table}", "--output", "{out}"],
            table=[entry], expect=expect,
            manifest=dict(record, form_dims=form_dims(d), form_dim_cap=FORM_DIM_CAP,
                          form_dim_cap_reason="runtime budget: the unit search "
                                              "costs about 5**dim per form"),
        ))
    return items


def _pair_item(name: str, cls: str, a: Diagram, b: Diagram, rng: random.Random,
               expect: dict, manifest: dict) -> Item:
    manifest = dict(manifest, n=a.n, form_dims=[form_dims(a), form_dims(b)],
                    expected=expect["verdict"])
    return Item(
        name=name, cls=cls, n=a.n,
        argv=["flype-check", "--input", "{table}", "--a", "a", "--b", "b"],
        table=[_entry("a", a, rng), _entry("b", b, rng)],
        expect=expect, manifest=manifest,
    )


def _flype_check(rng: random.Random) -> list[Item]:
    items = []
    for n in SWEEP_NS:
        spec_a, spec_b = distinguished_pair(n)
        if expected_determinant(spec_a) == expected_determinant(spec_b):
            raise ValueError(f"distinguished pair at n={n} shares its determinant")
        items.append(_pair_item(
            f"distinguished-n{n:02d}", "distinguished",
            build_spec(spec_a), build_spec(spec_b), rng,
            {"verdict": "distinguished", "reference": f"n{n}"},
            {"a": spec_key(spec_a), "b": spec_key(spec_b)}))
    for i, spec in enumerate(RELATED_SEEDS):
        seed = build_spec(spec)
        walk = distinct_walk_end(seed, random.Random(f"walk:{spec_key(spec)}"))
        items.append(_pair_item(
            f"related-{i:02d}", "related", walk, seed, rng,
            {"verdict": "related"},
            {"a": f"walk from {spec_key(spec)}", "b": spec_key(spec)}))
    for i, (spec_a, spec_b) in enumerate(MUTANT_PAIRS):
        items.append(_pair_item(
            f"mutant-{i:02d}", "mutant",
            build_spec(spec_a), build_spec(spec_b), rng,
            {"verdict": "not_related", "reference": spec_key(spec_a)},
            {"a": spec_key(spec_a), "b": spec_key(spec_b)}))
    return items


_WORKLOAD_ITEMS = {
    "table_invariants": _table_invariants,
    "flype_check": _flype_check,
}
WORKLOADS = tuple(_WORKLOAD_ITEMS)


def build_workload(workload: str, seed: int) -> list[Item]:
    """The items of one workload; the same seed gives the same items."""
    if workload not in _WORKLOAD_ITEMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _WORKLOAD_ITEMS[workload](random.Random(f"{workload}:{seed}"))
