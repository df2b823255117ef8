"""The fast primality test and canonical code against brute-force references.

``brute_force_is_prime`` cuts every pair of edges and searches the crossing
graph; ``brute_force_code`` builds every rooted traversal code in full and
takes the minimum.  Both are the definitions the library's versions
(the face criterion and the early-exit code search) must agree with.
"""

import collections
import itertools

import pytest

from taitkit.construct import braid_closure, montesinos_diagram, rational_diagram
from taitkit.diagram import (
    Diagram,
    PreconditionFailed,
    build_from_crossing_list,
    is_alternating,
    is_prime_diagram,
    mirror_diagram,
)
from taitkit.flype import apply_flype, find_flype_sites
from taitkit.orbit import canonical_code

from conftest import HOPF_PD, KINK_PD


def brute_force_is_prime(d: Diagram) -> bool:
    """True when no two edges can be cut to split the crossing graph into
    two parts that both contain a crossing."""
    if d.n <= 1:
        return True
    edges = list(d.edges().values())
    for (a1, b1), (a2, b2) in itertools.combinations(edges, 2):
        banned = {a1, b1, a2, b2}
        seen = {0}
        stack = [0]
        while stack:
            c = stack.pop()
            for k in range(4):
                dart = 4 * c + k
                if dart in banned:
                    continue
                c2 = d.partner[dart] >> 2
                if c2 not in seen:
                    seen.add(c2)
                    stack.append(c2)
        if len(seen) < d.n:
            return False
    return True


def rooted_code(d: Diagram, root: int) -> tuple[int, ...]:
    """Traversal code with the root dart's crossing first and its slot as
    the reference direction."""
    order: list[int] = [root >> 2]
    label = {root >> 2: 0}
    ref = {root >> 2: root & 3}
    code: list[int] = []
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        code.append(1 if d.is_over_dart(d.dart(c, ref[c])) else 0)
        for k in range(4):
            p = d.partner[d.dart(c, ref[c] + k)]
            c2, s2 = p >> 2, p & 3
            if c2 not in label:
                label[c2] = len(order)
                ref[c2] = s2
                order.append(c2)
            code.append(label[c2] * 4 + ((s2 - ref[c2]) % 4))
    return tuple(code)


def brute_force_code(d: Diagram, include_reflection: bool = False) -> tuple[int, ...]:
    diagrams = [d, mirror_diagram(d)] if include_reflection else [d]
    return min(rooted_code(dd, root) for dd in diagrams for root in range(dd.num_darts))


def connected_sum(pd1, pd2) -> Diagram:
    """A connected sum of two PD codes: the first edge label of each code is
    cut and the four ends are joined across.  Of the two ways to join them
    the alternating one is kept when there is one."""
    shift = max(x for t in pd1 for x in t)
    pd2 = [tuple(x + shift for x in t) for t in pd2]
    a, b = pd1[0][0], pd2[0][0]
    c1, k1 = next((c, k) for c, t in enumerate(pd1) for k, x in enumerate(t) if x == a)
    candidates = []
    for c2, k2 in [(c, k) for c, t in enumerate(pd2) for k, x in enumerate(t) if x == b]:
        left = [list(t) for t in pd1]
        right = [list(t) for t in pd2]
        left[c1][k1] = b
        right[c2][k2] = a
        candidates.append(build_from_crossing_list(
            [tuple(t) for t in left + right]))
    return next((d for d in candidates if is_alternating(d)), candidates[0])


CONSTRUCTED = (
    [rational_diagram(seq) for seq in
     ([3], [2, 2], [2] * 5, [2] * 9, [2] * 12, [3, 1, 2], [4, 3, 2, 1],
      [1, 1, 1, 1, 1, 1, 1], [5, 5], [2, 1, 3, 1, 2, 1, 3])]
    + [montesinos_diagram(seqs) for seqs in
       ([[2], [3], [3]], [[2, 1], [3], [2, 2]], [[3, 1], [2, 2], [3]],
        [[2, 1], [3, 1], [2, 2], [3]], [[2, 2], [2, 2], [2, 2]],
        [[2], [3], [2], [3]])]
    + [braid_closure(word) for word in
       ([1, -2] * 3, [1, 1, -2, -2] * 2, [1, 2, 1, 2, 1, 2],
        [1, -2, 1, 1, -2, -2, 1], [1, 1, 1, 2, 1, 2, 1, 2])]
)


@pytest.fixture(scope="module")
def sums(table):
    knots = [doc for doc in table if doc.tags.get("components") == "1"][:7]
    out = [connected_sum(list(x.pd), list(y.pd))
           for x, y in itertools.combinations_with_replacement(knots, 2)]
    return out + [connected_sum(KINK_PD, HOPF_PD), connected_sum(HOPF_PD, HOPF_PD)]


def check_against_references(diagrams):
    for d in diagrams:
        assert is_prime_diagram(d) == brute_force_is_prime(d), d
        assert canonical_code(d).bytes == brute_force_code(d), d


def test_table_and_mirrors(table_diagrams, kink, hopf, granny):
    diagrams = list(table_diagrams.values()) + [kink, hopf, granny]
    check_against_references(diagrams + [mirror_diagram(d) for d in diagrams])


def test_constructed_families():
    check_against_references(CONSTRUCTED)


def test_flype_children(table_diagrams):
    children = [apply_flype(d, site) for d in table_diagrams.values()
                for site in find_flype_sites(d)]
    assert len(children) > 1000
    check_against_references(children)


def test_site_classes_give_one_child(table_diagrams):
    """The orbit search rewrites one site per ``(crossing, tangle)`` class
    and gives its code to every site of the class; here every site of every
    class with more than one is applied."""
    diagrams = [d for d in list(table_diagrams.values()) + CONSTRUCTED
                if is_alternating(d)]
    sites = classes = 0
    for d in diagrams + [mirror_diagram(d) for d in diagrams]:
        by_class = collections.defaultdict(list)
        for site in find_flype_sites(d):
            by_class[(site.crossing, site.tangle)].append(site)
            sites += 1
        for members in by_class.values():
            if len(members) > 1:
                classes += 1
                codes = {canonical_code(apply_flype(d, site)) for site in members}
                assert len(codes) == 1, (d, members)
    assert sites > 7000 and classes > 1000


def test_connected_sums_are_not_prime(sums):
    assert len(sums) >= 20
    check_against_references(sums)
    assert not any(is_prime_diagram(d) for d in sums)
    for d in sums[:-2]:  # table sums: reduced and alternating, so only primality fails
        with pytest.raises(PreconditionFailed) as err:
            find_flype_sites(d)
        assert err.value.predicate == "prime"


def test_code_with_reflection(table_diagrams, sums):
    diagrams = list(table_diagrams.values()) + CONSTRUCTED[:8] + sums[:6]
    for d in diagrams:
        assert canonical_code(d, include_reflection=True).bytes == \
            brute_force_code(d, include_reflection=True)
        assert canonical_code(d, include_reflection=True) == \
            canonical_code(mirror_diagram(d), include_reflection=True)

