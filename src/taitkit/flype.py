"""Flype sites and the flype rewrite.

A flype circle meets the diagram in one crossing and two edge interior
points.  At the crossing it enters through the two opposite corners that
straddle the tangle-facing slot pair, so a legal site is witnessed in the
region structure by a length-3 cycle: corner region, first cut edge,
middle region, second cut edge, corner region on the other diagonal.

``apply_flype`` removes the crossing, reflects the tangle (rotation
orders reversed, overstrands toggled), and reinserts the crossing between
the far ends of the cut edges.  The reinserted crossing's overstrand is
fixed by the rotation sense that cancels the removed crossing; on
alternating input the output is asserted to be alternating again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import (
    Diagram,
    DiagramError,
    PreconditionFailed,
    _DisjointSets,
    assemble_diagram,
    is_alternating,
    is_prime_diagram,
    is_reduced,
    writhe,
)


class InvalidSite(DiagramError):
    pass


@dataclass(frozen=True)
class FlypeSite:
    """A legal flype: the crossing, the tangle-facing slot pair ``(side,
    side+1)``, the cut edges ordered along the circle, and the crossings
    strictly inside."""

    crossing: int
    side: int
    cut_edges: tuple[int, int]
    tangle: frozenset[int]

    def to_json(self) -> dict:
        return {
            "crossing": self.crossing,
            "cut_edges": list(self.cut_edges),
            "tangle": sorted(self.tangle),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def _require_preconditions(d: Diagram) -> None:
    for name, pred in (("reduced", is_reduced), ("alternating", is_alternating),
                       ("prime", is_prime_diagram)):
        if not pred(d):
            raise PreconditionFailed(name)


def _resolve_tangle(
    d: Diagram, edges: dict[int, tuple[int, int]],
    crossing: int, side: int, e_n: int, e_s: int
) -> frozenset[int] | None:
    """Check that deleting the crossing and cutting the two edges splits
    the diagram into a tangle side and its complement; returns the tangle
    crossings, or None if the data is not a coherent circle.  ``edges`` is
    ``d.edges()``."""
    if e_n == e_s:
        return None
    cut = (e_n, e_s)
    in_slots = (side, (side + 1) % 4)
    out_slots = ((side + 2) % 4, (side + 3) % 4)

    sets = _DisjointSets(d.n)
    find, union = sets.find, sets.union
    for lab, (x, y) in edges.items():
        if lab in cut:
            continue
        a, b = x >> 2, y >> 2
        if a != crossing and b != crossing:
            union(a, b)

    label: dict[int, bool] = {}  # root -> True for tangle side

    def force(v: int, inside: bool) -> bool:
        root = find(v)
        if root in label:
            return label[root] == inside
        label[root] = inside
        return True

    for slots, inside in ((in_slots, True), (out_slots, False)):
        for j in slots:
            dart = d.dart(crossing, j)
            if d.edge_label[dart] in cut:
                continue
            far = d.partner[dart] >> 2
            if far == crossing or not force(far, inside):
                return None

    relational: list[tuple[int, int]] = []
    for lab in cut:
        x, y = edges[lab]
        ends = [(t >> 2, t & 3) for t in (x, y)]
        at_c = [e for e in ends if e[0] == crossing]
        away = [e for e in ends if e[0] != crossing]
        if len(at_c) == 2:
            return None
        if len(at_c) == 1:
            c_end_inside = at_c[0][1] in in_slots
            if not force(away[0][0], not c_end_inside):
                return None
        else:
            relational.append((away[0][0], away[1][0]))

    changed = True
    while changed:
        changed = False
        for u, v in relational:
            ru, rv = find(u), find(v)
            if ru in label and rv in label:
                if label[ru] == label[rv]:
                    return None
            elif ru in label:
                label[rv] = not label[ru]
                changed = True
            elif rv in label:
                label[ru] = not label[rv]
                changed = True
    rest = [v for v in range(d.n) if v != crossing]
    if any(find(v) not in label for v in rest):
        return None
    tangle = frozenset(v for v in rest if label[find(v)])
    return tangle or None


def find_flype_sites(d: Diagram) -> tuple[FlypeSite, ...]:
    """All legal flype sites, in deterministic order.

    Candidates come from length-3 cycles in the region structure through
    the diagonal corner pair of each crossing; each candidate is then
    verified by the graph disconnection test.
    """
    _require_preconditions(d)
    rof = d.region_of_dart
    faces = d.faces
    edges = d.edges()
    sites: dict[tuple[int, int, int, int], FlypeSite] = {}
    for c in range(d.n):
        for s in range(4):
            r1 = rof[d.dart(c, s + 1)]
            r3 = rof[d.dart(c, s + 3)]
            if r1 == r3:
                continue
            for x in faces[r1]:
                e_n = d.edge_label[x]
                r2 = rof[d.partner[x]]
                for y in faces[r2]:
                    e_s = d.edge_label[y]
                    if e_s == e_n or rof[d.partner[y]] != r3:
                        continue
                    key = (c, s, e_n, e_s)
                    if key in sites:
                        continue
                    tangle = _resolve_tangle(d, edges, c, s, e_n, e_s)
                    if tangle is not None:
                        sites[key] = FlypeSite(c, s, (e_n, e_s), tangle)
    return tuple(sites[k] for k in sorted(sites,
                                          key=lambda k: (k[0], k[2], k[3], k[1])))


# c* dart roles, counterclockwise: southeast, northeast, northwest, southwest
_KSE, _KNE, _KNW, _KSW = 0, 1, 2, 3


def apply_flype(d: Diagram, site: FlypeSite) -> Diagram:
    """Apply the flype rewrite; the result reuses the crossing id for the
    transported crossing."""
    c, s = site.crossing, site.side
    if not 0 <= c < d.n:
        raise InvalidSite(f"no crossing {c}")
    e_n, e_s = site.cut_edges
    edges = d.edges()
    if e_n not in edges or e_s not in edges:
        raise InvalidSite(f"cut edges {site.cut_edges} not present")
    tangle = _resolve_tangle(d, edges, c, s, e_n, e_s)
    if tangle != site.tangle:
        raise InvalidSite("site does not match the diagram's cut structure")

    in_slots = (s % 4, (s + 1) % 4)

    def map_dart(dart: int) -> int:
        v = dart >> 2
        if v in tangle:
            return 4 * v + ((4 - (dart & 3)) % 4)
        return dart

    def kdart(role: int) -> int:
        return 4 * c + role

    # wiring tokens: ("d", new dart) endpoints, ("s", slot) pass-through
    # stubs at the removed crossing.  Each wiring segment remembers the old
    # edge it came from and the old dart on each token's side (None at a
    # cut point).
    segments: list[tuple[tuple, tuple, int, dict]] = []
    plain: list[tuple[int, int]] = []  # untouched edges, new dart pairs
    cut_roles = {e_n: (kdart(_KSW), kdart(_KNE)), e_s: (kdart(_KNW), kdart(_KSE))}
    for lab, (x, y) in edges.items():
        incident = (x >> 2 == c) or (y >> 2 == c)
        if lab in cut_roles:
            k_in, k_out = cut_roles[lab]
            for t in (x, y):
                if t >> 2 == c:
                    inside = (t & 3) in in_slots
                    tok = ("s", t & 3)
                else:
                    inside = (t >> 2) in tangle
                    tok = ("d", map_dart(t))
                segments.append((tok, ("d", k_in if inside else k_out),
                                 lab, {tok: t}))
        elif incident:
            t_c, t_far = (x, y) if x >> 2 == c else (y, x)
            segments.append((("s", t_c & 3), ("d", map_dart(t_far)),
                             lab, {("s", t_c & 3): t_c, ("d", map_dart(t_far)): t_far}))
        else:
            plain.append((map_dart(x), map_dart(y)))

    passthrough = [(("s", s % 4), ("s", (s + 2) % 4)),
                   (("s", (s + 1) % 4), ("s", (s + 3) % 4))]

    adjacency: dict[tuple, list[tuple[tuple, tuple | None]]] = {}
    for a, b, lab, darts in segments:
        adjacency.setdefault(a, []).append((b, (lab, darts)))
        adjacency.setdefault(b, []).append((a, (lab, darts)))
    for a, b in passthrough:
        adjacency.setdefault(a, []).append((b, None))
        adjacency.setdefault(b, []).append((a, None))

    for tok, nbrs in adjacency.items():
        expected = 2 if tok[0] == "s" else 1
        if len(nbrs) != expected:
            raise InvalidSite(f"cut structure degenerate at {tok}")

    n = d.n
    partner = [-1] * (4 * n)
    forward = [False] * (4 * n)

    def connect(da: int, db: int, fwd_a: bool) -> None:
        partner[da], partner[db] = db, da
        forward[da], forward[db] = fwd_a, not fwd_a

    for x, y in plain:
        old_x = x if (x >> 2) not in tangle else 4 * (x >> 2) + ((4 - (x & 3)) % 4)
        connect(x, y, d.forward[old_x])

    visited: set[tuple] = set()
    for start in list(adjacency):
        if start[0] != "d" or start in visited:
            continue
        chain: list[tuple[tuple, tuple, tuple | None]] = []
        tok = start
        prev = None
        while True:
            visited.add(tok)
            nxt = next((b, info) for b, info in adjacency[tok] if b != prev or
                       (len(adjacency[tok]) == 1))
            chain.append((tok, nxt[0], nxt[1]))
            prev, tok = tok, nxt[0]
            if tok[0] == "d":
                visited.add(tok)
                break
        end_a, end_b = chain[0][0], chain[-1][1]
        # orient the chain from any constituent old edge
        flows_ab: bool | None = None
        for a, b, info in chain:
            if info is None:
                continue
            lab, darts = info
            for tok_side, old_dart in darts.items():
                if d.forward[old_dart]:
                    flows_ab = tok_side == a
                else:
                    flows_ab = tok_side != a
                break
            if flows_ab is not None:
                break
        if flows_ab is None:
            raise InvalidSite("cut structure yields an unoriented chain")
        connect(end_a[1], end_b[1], flows_ab)

    over_even = list(d.over_even)
    for v in tangle:
        over_even[v] = not over_even[v]
    y_over = d.over_even[c] == (((s + 1) % 2) == 0)
    # the tangle-side strand of the first cut edge passes over at the new
    # crossing exactly when the strand through slots (s+1, s+3) was over
    over_even[c] = not y_over

    if any(p < 0 for p in partner):
        raise InvalidSite("rewrite left unmatched darts")

    label = [0] * (4 * n)
    next_label = 1
    for dart in range(4 * n):
        if label[dart] == 0:
            label[dart] = label[partner[dart]] = next_label
            next_label += 1

    try:
        out = assemble_diagram(tuple(partner), tuple(over_even), tuple(label),
                               tuple(forward))
    except DiagramError as exc:
        raise InvalidSite(f"rewrite is not a sphere diagram: {exc}") from exc

    # the parent's predicate matters only when the child fails it
    if not is_alternating(out) and is_alternating(d):
        raise InvalidSite("rewrite broke alternation; site was not a flype circle")
    if not is_reduced(out) and is_reduced(d):
        raise InvalidSite("rewrite introduced a nugatory crossing")
    if writhe(out) != writhe(d):
        raise InvalidSite("rewrite changed the writhe; site was not a flype circle")
    return out
