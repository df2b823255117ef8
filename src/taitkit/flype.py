"""Flype sites and the flype rewrite.

A flype circle meets the diagram in one crossing and two edge interior
points.  At the crossing it enters through the two opposite corners that
straddle the tangle-facing slot pair, so a legal site is witnessed in the
region structure by a length-3 cycle: corner region, first cut edge,
middle region, second cut edge, corner region on the other diagonal.

``apply_flype`` removes the crossing, reflects the tangle (rotation
orders reversed, overstrands toggled), and reinserts the crossing between
the far ends of the cut edges.  It is one dart map: every old dart off
the crossing keeps its orientation and moves to its mirror slot inside
the tangle; its new partner is the reinserted crossing's dart on its side
when its edge is cut, the dart reached by passing straight through the
removed crossing when its edge ends there, and the image of its old
partner otherwise.  The reinserted crossing's overstrand is fixed by the
rotation sense that cancels the removed crossing.  ``InvalidSite`` is
raised when the site does not match the diagram, when the rewritten map
is not a connected sphere diagram, and when it breaks alternation or
reducedness that the input had, or changes the writhe.
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
    # the new crossing's darts on the (tangle, far) side of each cut edge
    roles = {e_n: (4 * c + _KSW, 4 * c + _KNE), e_s: (4 * c + _KNW, 4 * c + _KSE)}

    def inside(t: int) -> bool:
        return (t & 3) in in_slots if t >> 2 == c else t >> 2 in tangle

    def end(t: int) -> int:
        """The child's dart at old edge end ``t``, mirrored inside the tangle;
        from the removed crossing, the far end of the next edge straight
        through, or the new crossing's dart on that side if it is cut."""
        v = t >> 2
        if v != c:
            return 4 * v + (-t & 3) if v in tangle else t
        y = 4 * c + ((t + 2) & 3)
        if d.edge_label[y] in roles:
            return roles[d.edge_label[y]][not inside(y)]
        return end(d.partner[y])

    n = d.n
    partner, forward = [0] * (4 * n), [False] * (4 * n)

    def link(a: int, b: int, a_forward: bool) -> None:
        partner[a], partner[b] = b, a
        forward[a], forward[b] = a_forward, not a_forward

    # an edge into the removed crossing is linked again from the next edge
    for lab, (x, y) in edges.items():
        if lab not in roles:
            link(end(x), end(y), d.forward[x])
            continue
        x, y = (x, y) if inside(x) else (y, x)
        k_in, k_out = roles[lab]
        link(end(x), k_in, d.forward[x])
        link(k_out, end(y), d.forward[x])

    over_even = list(d.over_even)
    for v in tangle:
        over_even[v] = not over_even[v]
    y_over = d.over_even[c] == (((s + 1) % 2) == 0)
    # the tangle-side strand of the first cut edge passes over at the new
    # crossing exactly when the strand through slots (s+1, s+3) was over
    over_even[c] = not y_over

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
