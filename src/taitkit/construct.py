"""Programmatic construction of alternating diagrams.

Small tangle calculus used to assemble the bundled table: integer twist
regions, rational tangles from positive twist sequences, horizontal sums
of rotated rational tangles (pretzel and Montesinos patterns), and
closures of three-strand braid words.  All builders emit PD crossing
lists; callers validate the results (alternation, reducedness, expected
determinant) before trusting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagram import Diagram, _DisjointSets, build_from_crossing_list

PdTuple = tuple[int, int, int, int]


@dataclass
class Tangle:
    """A 2-string tangle under construction.

    ``crossings`` holds wire ids counterclockwise from slot 0; boundary
    wires are the four open ends.  Wires merged by joins are recorded and
    resolved when the tangle is closed.
    """

    crossings: list[list[int]]
    nw: int
    ne: int
    sw: int
    se: int
    next_wire: int
    merges: list[tuple[int, int]] = field(default_factory=list)

    def fresh(self) -> tuple["Tangle", int]:
        return replace(self, next_wire=self.next_wire + 1), self.next_wire


def zero_tangle() -> Tangle:
    # wire 0 runs nw-ne, wire 1 runs sw-se
    return Tangle(crossings=[], nw=0, ne=0, sw=1, se=1, next_wire=2)


def infinity_tangle() -> Tangle:
    # wire 0 runs nw-sw, wire 1 runs ne-se
    return Tangle(crossings=[], nw=0, ne=1, sw=0, se=1, next_wire=2)


def twist_right(t: Tangle, kind: int) -> Tangle:
    """One crossing appended on the east side; ``kind`` picks the
    understrand diagonal."""
    t, p = t.fresh()
    t, q = t.fresh()
    if kind == 0:
        tup = [t.se, q, p, t.ne]
    else:
        tup = [q, p, t.ne, t.se]
    return replace(t, crossings=t.crossings + [tup], ne=p, se=q)


def twist_bottom(t: Tangle, kind: int) -> Tangle:
    """One crossing appended on the south side."""
    t, p = t.fresh()
    t, q = t.fresh()
    if kind == 0:
        tup = [p, q, t.se, t.sw]
    else:
        tup = [q, t.se, t.sw, p]
    return replace(t, crossings=t.crossings + [tup], sw=p, se=q)


def rotate90(t: Tangle) -> Tangle:
    """Rotate the tangle a quarter turn counterclockwise."""
    return replace(t, nw=t.ne, ne=t.se, se=t.sw, sw=t.nw)


def join_horizontal(t1: Tangle, t2: Tangle) -> Tangle:
    """Place ``t2`` east of ``t1`` and fuse the facing ends."""
    shift = t1.next_wire
    crossings = t1.crossings + [[w + shift for w in tup] for tup in t2.crossings]
    merges = (t1.merges
              + [(a + shift, b + shift) for a, b in t2.merges]
              + [(t1.ne, t2.nw + shift), (t1.se, t2.sw + shift)])
    return Tangle(crossings, t1.nw, t2.ne + shift, t1.sw, t2.se + shift,
                  t1.next_wire + t2.next_wire, merges)


def numerator_closure(t: Tangle) -> list[PdTuple]:
    """Close the tangle by joining nw-ne and sw-se; returns PD tuples."""
    return _label_wires(t.crossings, t.merges + [(t.nw, t.ne), (t.sw, t.se)],
                        t.next_wire)


def _label_wires(crossings: list[list[int]], merges: list[tuple[int, int]],
                 wires: int) -> list[PdTuple]:
    """PD tuples for crossings given by wire ids ``0 .. wires - 1``: wires
    joined by ``merges`` form one edge, and edges are labelled 1, 2, ...
    in order of first appearance."""
    sets = _DisjointSets(wires)
    for a, b in merges:
        sets.union(a, b)
    labels: dict[int, int] = {}
    return [tuple(labels.setdefault(sets.find(w), len(labels) + 1) for w in tup)
            for tup in crossings]


# --------------------------------------------------------------------------
# named families

HORIZONTAL_KIND = 0
VERTICAL_KIND = 0


def rational_tangle(sequence: list[int]) -> Tangle:
    """Standard-form rational tangle from a positive twist sequence.

    Entries alternate between horizontal rows and vertical columns,
    starting horizontal; all entries must be positive for an alternating
    result.
    """
    if not sequence or any(a < 1 for a in sequence):
        raise ValueError("twist sequence must be positive integers")
    first_horizontal = (len(sequence) - 1) % 2 == 0
    t = zero_tangle() if first_horizontal else infinity_tangle()
    for i, a in enumerate(sequence):
        horizontal = (len(sequence) - 1 - i) % 2 == 0
        for _ in range(a):
            if horizontal:
                t = twist_right(t, HORIZONTAL_KIND)
            else:
                t = twist_bottom(t, VERTICAL_KIND)
    return t


def rational_diagram(sequence: list[int]) -> Diagram:
    """Numerator closure of a standard rational tangle."""
    return build_from_crossing_list(numerator_closure(rational_tangle(sequence)))


def continued_fraction(sequence: list[int]) -> tuple[int, int]:
    """The fraction ``(p, q)`` of the rational tangle, innermost entry first."""
    num, den = sequence[0], 1
    for a in sequence[1:]:
        num, den = a * num + den, num
    return num, den


def montesinos_diagram(sequences: list[list[int]]) -> Diagram:
    """Horizontal sum of rotated rational tangles, numerator closure.

    With single-entry sequences this is the pretzel pattern.
    """
    if len(sequences) < 2:
        raise ValueError("need at least two tangles")
    total = rotate90(rational_tangle(sequences[0]))
    for seq in sequences[1:]:
        total = join_horizontal(total, rotate90(rational_tangle(seq)))
    return build_from_crossing_list(numerator_closure(total))


def braid_closure(word: list[int], strands: int = 3) -> Diagram:
    """Closure of a braid word; generator ``i`` is positive, ``-i``
    negative, positions 1-based."""
    counter = strands
    top = list(range(strands))
    current = list(top)
    crossings: list[list[int]] = []
    for letter in word:
        j = abs(letter) - 1
        if not 0 <= j < strands - 1:
            raise ValueError(f"generator {letter} out of range")
        a, b = current[j], current[j + 1]
        c, d = counter, counter + 1
        counter += 2
        # compass at the crossing, braid running north to south:
        # NW=a NE=b SW=c SE=d; counterclockwise from SW: (c, d, b, a)
        if letter > 0:
            crossings.append([c, d, b, a])       # NW-SE strand over
        else:
            crossings.append([d, b, a, c])
        current[j], current[j + 1] = c, d
    return build_from_crossing_list(_label_wires(crossings, list(zip(current, top)),
                                                 counter))
