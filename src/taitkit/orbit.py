"""Canonical codes and flype-orbit search.

The canonical code of a diagram is the minimum, over all rooted
traversals, of a breadth-first relabeling code of the combinatorial map
together with per-crossing overstrand bits.  Two diagrams get equal codes
exactly when they are isomorphic as sphere maps with over/under data
under orientation-preserving isomorphism; mirror images are distinct
unless reflection is explicitly requested.  The minimum is found without
building every rooted code: each one is compared with the smallest so far
while it is built, and a root is abandoned at its first larger entry.

``flype_orbit`` closes a diagram under all flypes by breadth-first search
with node and depth limits, deduplicating by canonical code and checking
the invariant vector on every member.  The sites of one parent that share
a ``(crossing, tangle)`` class give one child, so each class is rewritten
and canonicalized once and its code is shared by all of its sites' edges.
``is_flype_related`` runs the same search and stops when the target's
code is admitted as a member; the limits count exactly as in the full
search, so the verdict does not depend on the early stop.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum

from .diagram import Diagram, mirror_diagram
from .flype import FlypeSite, _require_preconditions, apply_flype, find_flype_sites
from .goeritz import chessboard_summaries


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Relabeling-invariant code of a diagram; ordered lexicographically."""

    bytes: tuple[int, ...]

    def to_json(self) -> list[int]:
        return list(self.bytes)

    def short(self) -> str:
        digest = hashlib.sha1(",".join(map(str, self.bytes)).encode())
        return "c" + digest.hexdigest()[:10]


def _rooted_code_below(partner: tuple[int, ...], over: list[int], n: int,
                       root: int, best: list[int]) -> list[int] | None:
    """The traversal code rooted at ``root`` if it is smaller than ``best``,
    else None.

    The root dart's crossing comes first and its slot is the reference
    direction.  Each crossing contributes its overstrand bit at the
    reference slot, then ``4 * label + relative slot`` of the far end of
    each of its four edges, counterclockwise from the reference slot;
    crossings are labelled in order of first discovery.  The code is
    compared with ``best`` entry by entry while it is built: the root is
    abandoned at the first larger entry, and after the first smaller one
    the code is finished without comparing.  An empty ``best`` means no
    code yet, and the code is built in full.
    """
    c = root >> 2
    label = [-1] * n
    ref = [0] * n
    label[c] = 0
    ref[c] = root & 3
    order = [c]
    code: list[int] = []
    tied = bool(best)
    for c in order:  # grows while the traversal discovers crossings
        r = ref[c]
        base = 4 * c
        x = over[c] ^ (r & 1)
        if tied:
            b = best[len(code)]
            if x != b:
                if x > b:
                    return None
                tied = False
        code.append(x)
        for k in range(4):
            p = partner[base + ((r + k) & 3)]
            c2 = p >> 2
            if label[c2] < 0:
                label[c2] = len(order)
                ref[c2] = p & 3
                order.append(c2)
            x = 4 * label[c2] + ((p - ref[c2]) & 3)
            if tied:
                b = best[len(code)]
                if x != b:
                    if x > b:
                        return None
                    tied = False
            code.append(x)
    return None if tied else code


def canonical_code(d: Diagram, include_reflection: bool = False) -> CanonicalCode:
    """Minimal rooted code over all starting darts; with
    ``include_reflection`` the mirror's codes compete too.

    Each rooted code is compared with the smallest one so far while it is
    built (see ``_rooted_code_below``), so most roots are abandoned after
    a few entries; the result is the same minimum as building every
    rooted code in full.
    """
    diagrams = [d]
    if include_reflection:
        diagrams.append(mirror_diagram(d))
    best: list[int] = []
    for dd in diagrams:
        partner = dd.partner
        # overstrand bit at slot 0 of each crossing; slot r flips it when odd
        over = [1 if x else 0 for x in dd.over_even]
        for root in range(4 * dd.n):
            code = _rooted_code_below(partner, over, dd.n, root, best)
            if code is not None:
                best = code
    return CanonicalCode(tuple(best))


def invariant_vector(d: Diagram) -> dict[str, int]:
    """The flype-invariant tuple shared by all members of an orbit."""
    b, w = chessboard_summaries(d)
    return {
        "crossing_number": d.n,
        "writhe": (b.slope + w.slope) // 2,
        "slope_B": b.slope,
        "slope_W": w.slope,
        "beta1_B": b.beta1,
        "beta1_W": w.beta1,
        "determinant": abs(b.form.determinant()),
    }


@dataclass(frozen=True)
class OrbitReport:
    seeds: tuple[CanonicalCode, ...]
    members: tuple[CanonicalCode, ...]
    edges: tuple[tuple[CanonicalCode, CanonicalCode, FlypeSite], ...]
    invariants: dict[str, int]
    truncated: bool
    max_nodes: int
    max_depth: int

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "seeds": [c.to_json() for c in self.seeds],
            "members": [c.to_json() for c in self.members],
            "edges": [
                {"from": a.to_json(), "to": b.to_json(), "site": s.to_json()}
                for a, b, s in self.edges
            ],
            "invariants": self.invariants,
            "truncated": self.truncated,
            "limits": {"max_nodes": self.max_nodes, "max_depth": self.max_depth},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    def to_dot(self) -> str:
        lines = ["graph flype_orbit {"]
        for code in self.members:
            lines.append(f'  "{code.short()}";')
        seen = set()
        for a, b, site in self.edges:
            key = tuple(sorted((a.short(), b.short()))) + (site.cut_edges,)
            if key in seen or a == b:
                continue
            seen.add(key)
            lines.append(
                f'  "{a.short()}" -- "{b.short()}"'
                f' [label="c{site.crossing}:{site.cut_edges[0]},{site.cut_edges[1]}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def flype_orbit(d: Diagram, max_nodes: int = 1000, max_depth: int = 100,
                include_reflection: bool = False) -> OrbitReport:
    """Breadth-first closure of the diagram under all flypes.

    ``include_reflection`` merges mirror-image members (exploratory only;
    the default keeps mirror images distinct).
    """
    return _orbit_search(d, canonical_code(d, include_reflection),
                         invariant_vector(d), max_nodes, max_depth,
                         include_reflection)


def _orbit_search(d: Diagram, seed_code: CanonicalCode, invariants: dict[str, int],
                  max_nodes: int, max_depth: int, include_reflection: bool,
                  target: CanonicalCode | None = None) -> OrbitReport:
    """``flype_orbit`` with the seed's code and invariant vector already
    computed.

    A parent's sites are grouped by ``(crossing, tangle)``: only the first
    site of each group is applied and canonicalized, and every site of the
    group gets that child's code.  With ``target``, the search returns as
    soon as that code is admitted as a member, after the ``max_nodes``
    check and that member's invariant check; the report then holds what
    was found so far.
    """
    members = {seed_code}
    edges: set[tuple[CanonicalCode, CanonicalCode, FlypeSite]] = set()
    frontier = [(seed_code, d)]
    depth = 0
    truncated = False

    def report() -> OrbitReport:
        return OrbitReport(
            seeds=(seed_code,),
            members=tuple(sorted(members)),
            edges=tuple(sorted(edges, key=lambda e: (e[0], e[1], e[2].crossing,
                                                     e[2].cut_edges, e[2].side))),
            invariants=invariants,
            truncated=truncated,
            max_nodes=max_nodes,
            max_depth=max_depth,
        )

    while frontier and not truncated:
        if depth >= max_depth:
            truncated = True
            break
        next_frontier = []
        for code, diagram in frontier:
            class_code: dict[tuple[int, frozenset[int]], CanonicalCode] = {}
            for site in find_flype_sites(diagram):
                key = (site.crossing, site.tangle)
                child_code = class_code.get(key)
                if child_code is None:
                    child = apply_flype(diagram, site)
                    child_code = class_code[key] = canonical_code(
                        child, include_reflection)
                edges.add((code, child_code, site))
                if child_code in members:
                    continue
                if len(members) >= max_nodes:
                    truncated = True
                    continue
                # a class's code can only be admitted at its first site,
                # so ``child`` is that site's rewrite
                child_inv = invariant_vector(child)
                if child_inv != invariants:
                    raise RuntimeError(
                        f"flype broke invariants: {invariants} -> {child_inv}")
                members.add(child_code)
                if child_code == target:
                    return report()
                next_frontier.append((child_code, child))
        frontier = next_frontier
        depth += 1
    return report()


class Relation(Enum):
    RELATED = "related"
    NOT_RELATED_WITHIN = "not_related_within"
    DISTINGUISHED = "distinguished_by_invariant"


@dataclass(frozen=True)
class FlypeRelation:
    verdict: Relation
    invariant: str | None = None
    truncated: bool = False
    explored: int = 0

    @property
    def conclusive(self) -> bool:
        return self.verdict is not Relation.NOT_RELATED_WITHIN or not self.truncated

    def describe(self) -> str:
        if self.verdict is Relation.RELATED:
            return "Related"
        if self.verdict is Relation.DISTINGUISHED:
            return f"DistinguishedByInvariant({self.invariant})"
        scope = "truncated" if self.truncated else "exhaustive"
        return f"NotRelatedWithin({self.explored} diagrams, {scope})"


def is_flype_related(
    d1: Diagram, d2: Diagram, max_nodes: int = 10_000, max_depth: int = 1000
) -> FlypeRelation:
    """Decide flype-relatedness: invariant fast rejection, then orbit BFS.

    The search from ``d1`` rewrites once per ``(crossing, tangle)`` class
    and returns ``RELATED`` as soon as ``d2``'s code is admitted as a
    member: after the ``max_nodes`` check and that member's invariant
    check, so every limit gives the verdict the full ``flype_orbit`` of
    ``d1`` would.  ``NOT_RELATED_WITHIN`` is definitive only when the
    orbit search completed without truncation.
    """
    _require_preconditions(d1)
    _require_preconditions(d2)
    inv1, inv2 = invariant_vector(d1), invariant_vector(d2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return FlypeRelation(Relation.DISTINGUISHED, invariant=key)
    seed, target = canonical_code(d1), canonical_code(d2)
    if seed == target:
        return FlypeRelation(Relation.RELATED)
    report = _orbit_search(d1, seed, inv1, max_nodes, max_depth,
                           include_reflection=False, target=target)
    if target in report.members:
        return FlypeRelation(Relation.RELATED)
    return FlypeRelation(Relation.NOT_RELATED_WITHIN, truncated=report.truncated,
                         explored=report.size)
