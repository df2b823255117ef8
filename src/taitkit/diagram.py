"""Connected link diagrams on the 2-sphere as combinatorial maps.

A diagram with ``n`` crossings is stored as ``4n`` darts.  Dart ``4*c + k``
sits at crossing ``c`` in slot ``k``, where slots ``0..3`` run
counterclockwise around the crossing.  The strand entering a crossing at
slot ``k`` leaves it at slot ``k + 2``; one of the two strand pairs,
``(0, 2)`` or ``(1, 3)``, carries the overstrand.

Conventions used throughout:

* ``partner`` is the fixed-point-free involution pairing the two darts of
  each edge.
* Faces (complementary regions) are the orbits of ``d -> rot_ccw^-1(partner(d))``.
  The dart ``(c, k)`` stands for the corner of crossing ``c`` between slots
  ``k`` and ``k + 1``, so a face orbit is exactly the set of corners of one
  region and every crossing contributes its four corners to (at most four)
  regions.
* PD input follows the usual convention: a tuple ``(a, b, c, d)`` lists the
  edge labels at slots ``0..3`` counterclockwise with the understrand on
  slots ``(0, 2)`` and slot ``0`` incoming.  Only the cyclic order and the
  understrand pair affect the map; strand directions are recovered from the
  orientation rule below.
* Each link component is oriented by default so that its least edge label
  is traversed toward the smaller of the two possible successor labels.
  ``forward[d]`` is True when the strand leaves ``d``'s crossing along ``d``.

Diagrams are immutable; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class DiagramError(Exception):
    """Base class for diagram construction and predicate failures."""


class MalformedCode(DiagramError):
    """An edge label does not appear exactly twice in the crossing list."""


class DisconnectedAmbient(DiagramError):
    """The crossing list describes a split (disconnected) diagram."""


class NonPlanar(DiagramError):
    """The gluing closes up to a positive-genus surface, not the sphere."""


class NotBipartite(DiagramError):
    """Region adjacency admits no proper two-coloring (defensive; cannot
    occur for sphere diagrams)."""


class PreconditionFailed(DiagramError):
    """An operation was applied to a diagram violating a stated predicate."""

    def __init__(self, predicate: str, message: str = ""):
        self.predicate = predicate
        super().__init__(message or f"precondition violated: {predicate}")


class Color(Enum):
    BLACK = "black"
    WHITE = "white"
    UNCOLORED = "uncolored"

    def opposite(self) -> "Color":
        if self is Color.BLACK:
            return Color.WHITE
        if self is Color.WHITE:
            return Color.BLACK
        raise ValueError("uncolored has no opposite")


@dataclass(frozen=True)
class Region:
    """A complementary region, given by its face trace.

    ``boundary`` lists the darts of the face orbit in trace order; dart
    ``(c, k)`` stands for the corner of ``c`` between slots ``k`` and
    ``k + 1``.
    """

    id: int
    boundary: tuple[int, ...]
    color: Color = Color.UNCOLORED

    @property
    def degree(self) -> int:
        return len(self.boundary)


@dataclass(frozen=True)
class Diagram:
    """A connected link diagram on the sphere.

    Fields are parallel arrays over darts except ``over_even`` which is
    indexed by crossing: ``over_even[c]`` is True when slots ``(0, 2)`` of
    crossing ``c`` carry the overstrand.
    """

    n: int
    partner: tuple[int, ...]
    over_even: tuple[bool, ...]
    edge_label: tuple[int, ...]
    forward: tuple[bool, ...]
    component: tuple[int, ...]
    # ``faces`` and ``region_of_dart``, filled in on first use.  Declared
    # fields, not cached_properties: writing new keys into the instance
    # ``__dict__`` would slow every later attribute read on the diagram.
    _faces: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    _region_of_dart: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    # -- basic dart bookkeeping -------------------------------------------

    @property
    def num_darts(self) -> int:
        return 4 * self.n

    @property
    def num_edges(self) -> int:
        return 2 * self.n

    @property
    def num_components(self) -> int:
        return max(self.component) + 1 if self.component else 0

    def crossing_of(self, dart: int) -> int:
        return dart >> 2

    def slot_of(self, dart: int) -> int:
        return dart & 3

    def dart(self, crossing: int, slot: int) -> int:
        return 4 * crossing + (slot & 3)

    @property
    def components(self) -> dict[int, tuple[int, ...]]:
        """Component index -> sorted edge labels of that component."""
        out: dict[int, set[int]] = {}
        for dart in range(self.num_darts):
            out.setdefault(self.component[dart], set()).add(self.edge_label[dart])
        return {comp: tuple(sorted(labels)) for comp, labels in sorted(out.items())}

    def edges(self) -> dict[int, tuple[int, int]]:
        """Edge label -> its dart pair (smaller dart first)."""
        out: dict[int, tuple[int, int]] = {}
        for d in range(self.num_darts):
            p = self.partner[d]
            if d < p:
                out[self.edge_label[d]] = (d, p)
        return out

    def is_over_dart(self, dart: int) -> bool:
        return ((dart & 3) % 2 == 0) == self.over_even[dart >> 2]

    # -- faces -------------------------------------------------------------

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of ``d -> rot^-1(partner(d))``, each a region's corner set."""
        if self._faces is None:
            seen = [False] * self.num_darts
            out: list[tuple[int, ...]] = []
            for start in range(self.num_darts):
                if seen[start]:
                    continue
                orbit = []
                d = start
                while not seen[d]:
                    seen[d] = True
                    orbit.append(d)
                    p = self.partner[d]
                    d = self.dart(p >> 2, (p & 3) - 1)
                out.append(tuple(orbit))
            object.__setattr__(self, "_faces", tuple(out))
        return self._faces

    @property
    def region_of_dart(self) -> tuple[int, ...]:
        """Index in ``faces`` of the region holding each dart's corner."""
        if self._region_of_dart is None:
            out = [0] * self.num_darts
            for i, face in enumerate(self.faces):
                for d in face:
                    out[d] = i
            object.__setattr__(self, "_region_of_dart", tuple(out))
        return self._region_of_dart

    # -- orientation -------------------------------------------------------

    def reverse_components(self, which: set[int] | None = None) -> "Diagram":
        """Return the diagram with the given components (default: all)
        traversed in the opposite direction."""
        flip = set(range(self.num_components)) if which is None else set(which)
        fwd = tuple(
            (not f) if self.component[d] in flip else f
            for d, f in enumerate(self.forward)
        )
        return Diagram(self.n, self.partner, self.over_even, self.edge_label,
                       fwd, self.component)


@dataclass(frozen=True)
class Coloring:
    """A proper chessboard two-coloring of a diagram's regions.

    The region containing the corner at slot pair ``(0, 1)`` of crossing 0
    (dart 0) is Black; the rest follows by propagation.  The Black/White
    names here are the raw anchor labels, not the sign-based relabeling
    applied by the form layer.
    """

    regions: tuple[Region, ...]
    region_of_dart: tuple[int, ...]

    def color_of_dart(self, dart: int) -> Color:
        return self.regions[self.region_of_dart[dart]].color

    def regions_of(self, color: Color) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.color is color)

    def count(self, color: Color) -> int:
        return sum(1 for r in self.regions if r.color is color)


# --------------------------------------------------------------------------
# construction


def build_from_crossing_list(pd: list[tuple[int, int, int, int]]) -> Diagram:
    """Build a diagram from PD-style crossing tuples.

    Raises MalformedCode if some edge label does not occur exactly twice,
    DisconnectedAmbient for split codes, and NonPlanar when the face count
    is not ``n + 2``.
    """
    pd = [tuple(x) for x in pd]
    if not pd:
        raise MalformedCode("empty crossing list")
    for t in pd:
        if len(t) != 4 or not all(isinstance(x, int) and x > 0 for x in t):
            raise MalformedCode(f"crossing tuple {t!r} is not four positive integers")
    n = len(pd)
    by_label: dict[int, list[int]] = {}
    for c, tup in enumerate(pd):
        for k, label in enumerate(tup):
            by_label.setdefault(label, []).append(4 * c + k)
    bad = {lab: len(ds) for lab, ds in by_label.items() if len(ds) != 2}
    if bad:
        raise MalformedCode(f"labels not used exactly twice: {bad}")

    partner = [0] * (4 * n)
    for ds in by_label.values():
        a, b = ds
        partner[a], partner[b] = b, a
    edge_label = [pd[d >> 2][d & 3] for d in range(4 * n)]
    forward, component = _default_orientation(n, partner, edge_label)
    return _sphere_diagram(partner, (False,) * n, edge_label, forward, component)


def _default_orientation(
    n: int, partner: list[int], edge_label: list[int]
) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """Orient every component from its least edge label toward the smaller
    successor label; ties break on dart id."""

    def continuation(dart: int) -> int:
        p = partner[dart]
        return 4 * (p >> 2) + (((p & 3) + 2) & 3)

    forward = [False] * (4 * n)
    component = [-1] * (4 * n)
    comp = 0
    while True:
        unassigned = [d for d in range(4 * n) if component[d] < 0]
        if not unassigned:
            break
        least = min(edge_label[d] for d in unassigned)
        starts = sorted(d for d in unassigned if edge_label[d] == least)
        a, b = starts
        next_a = edge_label[continuation(a)]
        next_b = edge_label[continuation(b)]
        start = a if (next_a, a) <= (next_b, b) else b
        d = start
        while component[d] < 0:
            forward[d] = True
            component[d] = comp
            component[partner[d]] = comp
            d = continuation(d)
        comp += 1
    return tuple(forward), tuple(component)


def assemble_diagram(
    partner: tuple[int, ...],
    over_even: tuple[bool, ...],
    edge_label: tuple[int, ...],
    forward: tuple[bool, ...],
) -> Diagram:
    """Build a diagram from explicit map data, keeping the given
    orientation.  Validates the involution, orientation consistency,
    connectivity, and planarity."""
    n = len(over_even)
    if len(partner) != 4 * n:
        raise MalformedCode("partner array must have four darts per crossing")
    for dart in range(4 * n):
        p = partner[dart]
        if p == dart or partner[p] != dart:
            raise MalformedCode(f"partner is not a free involution at dart {dart}")
        if forward[dart] == forward[p]:
            raise MalformedCode(f"edge at dart {dart} needs exactly one forward end")

    component = [-1] * (4 * n)
    comp = 0
    for start in range(4 * n):
        if component[start] >= 0 or not forward[start]:
            continue
        dart = start
        while component[dart] < 0:
            if not forward[dart]:
                raise MalformedCode("forward flags do not follow strands")
            component[dart] = comp
            component[partner[dart]] = comp
            p = partner[dart]
            dart = 4 * (p >> 2) + (((p & 3) + 2) & 3)
        comp += 1

    return _sphere_diagram(partner, over_even, edge_label, forward, component)


def _sphere_diagram(partner, over_even, edge_label, forward, component) -> Diagram:
    """The diagram on the given map data, checked to be connected and to
    close up to a sphere: ``n + 2`` faces for ``n`` crossings.

    Raises DisconnectedAmbient or NonPlanar.
    """
    n = len(over_even)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        c = stack.pop()
        for p in partner[4 * c:4 * c + 4]:
            if not seen[p >> 2]:
                seen[p >> 2] = True
                stack.append(p >> 2)
    reached = seen.count(True)
    if reached != n:
        raise DisconnectedAmbient(
            f"crossing list splits into {reached} of {n} crossings and more")
    d = Diagram(n, tuple(partner), tuple(over_even), tuple(edge_label),
                tuple(forward), tuple(component))
    if len(d.faces) != n + 2:
        raise NonPlanar(f"{len(d.faces)} faces for {n} crossings; sphere needs {n + 2}")
    return d


class _DisjointSets:
    """Union-find over ``0 .. size - 1`` with path halving."""

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def mirror_diagram(d: Diagram) -> Diagram:
    """The reflection of the diagram (rotation orders reversed, over and
    under strands kept)."""

    def remap(dart: int) -> int:
        return 4 * (dart >> 2) + ((4 - (dart & 3)) % 4)

    partner = [0] * d.num_darts
    label = [0] * d.num_darts
    forward = [False] * d.num_darts
    for dart in range(d.num_darts):
        partner[remap(dart)] = remap(d.partner[dart])
        label[remap(dart)] = d.edge_label[dart]
        forward[remap(dart)] = d.forward[dart]
    return assemble_diagram(tuple(partner), d.over_even, tuple(label),
                            tuple(forward))


# --------------------------------------------------------------------------
# regions and coloring


def trace_regions(d: Diagram) -> tuple[Region, ...]:
    """The complementary regions of the diagram, uncolored."""
    return tuple(Region(i, face) for i, face in enumerate(d.faces))


def color_chessboard(d: Diagram) -> Coloring:
    """Properly two-color the regions, anchoring Black at dart 0's corner."""
    regions = trace_regions(d)
    adjacency: list[set[int]] = [set() for _ in regions]
    rof = d.region_of_dart
    for dart in range(d.num_darts):
        a, b = rof[dart], rof[d.partner[dart]]
        adjacency[a].add(b)
        adjacency[b].add(a)
    colors: dict[int, Color] = {rof[0]: Color.BLACK}
    queue = [rof[0]]
    while queue:
        r = queue.pop()
        for r2 in adjacency[r]:
            if r2 not in colors:
                colors[r2] = colors[r].opposite()
                queue.append(r2)
            elif colors[r2] is colors[r]:
                raise NotBipartite(f"regions {r} and {r2} clash")
    colored = tuple(Region(r.id, r.boundary, colors[r.id]) for r in regions)
    return Coloring(colored, rof)


# --------------------------------------------------------------------------
# predicates


def is_alternating(d: Diagram) -> bool:
    """True when every edge joins an over end to an under end."""
    return all(
        d.is_over_dart(dart) != d.is_over_dart(d.partner[dart])
        for dart in range(d.num_darts)
    )


def is_reduced(d: Diagram) -> bool:
    """True when each crossing abuts four distinct regions."""
    rof = d.region_of_dart
    return all(
        len({rof[4 * c], rof[4 * c + 1], rof[4 * c + 2], rof[4 * c + 3]}) == 4
        for c in range(d.n)
    )


def is_prime_diagram(d: Diagram) -> bool:
    """True when no two edges can be cut to split the crossing graph into
    two parts that both contain a crossing.

    Checked in O(E) by the face criterion: the diagram is prime exactly
    when no two distinct edges separate the same two regions.  A 2-edge
    cut of a plane graph is a 2-cycle of its dual, and the crossing graph
    is 4-regular, so it has no bridge and every cut of two edges is
    minimal; conversely the curve through the two regions across both
    edges leaves an end crossing of each edge on either side.
    """
    rof = d.region_of_dart
    edges = d.edges().values()
    sides = {(rof[x], rof[y]) if rof[x] < rof[y] else (rof[y], rof[x])
             for x, y in edges}
    return len(sides) == len(edges)


def crossing_signs(d: Diagram) -> dict[int, int]:
    """Right-hand-rule sign of each crossing under the stored orientation.

    With slots counterclockwise, a crossing is positive when the overstrand
    enters one slot counterclockwise of the incoming understrand.  Under
    this convention the PD code (1,4,2,5)(3,6,4,1)(5,2,6,3) is the
    right-handed trefoil with writhe +3.
    """
    signs = {}
    for c in range(d.n):
        under = (1, 3) if d.over_even[c] else (0, 2)
        over = (0, 2) if d.over_even[c] else (1, 3)
        u_in = next(k for k in under if not d.forward[4 * c + k])
        o_in = next(k for k in over if not d.forward[4 * c + k])
        signs[c] = 1 if (o_in - u_in) % 4 == 1 else -1
    return signs


def writhe(d: Diagram) -> int:
    return sum(crossing_signs(d).values())
