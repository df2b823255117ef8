import itertools
import random

import pytest

from taitkit.construct import montesinos_diagram
from taitkit.diagram import (
    Diagram,
    build_from_crossing_list,
    mirror_diagram,
    PreconditionFailed,
)
from taitkit.flype import apply_flype, find_flype_sites
from taitkit.orbit import (
    Relation,
    canonical_code,
    flype_orbit,
    invariant_vector,
    is_flype_related,
)

from conftest import TREFOIL_PD


def explicit_isomorphism_exists(d1: Diagram, d2: Diagram) -> bool:
    """Brute-force search for a rotation-preserving dart bijection
    respecting partners and overstrands; independent of the code."""
    if d1.n != d2.n:
        return False
    for root in range(d2.num_darts):
        image = {0: root}  # dart of d1 -> dart of d2, grown by traversal
        queue = [0]
        ok = True
        while queue and ok:
            a = queue.pop()
            b = image[a]
            if d1.is_over_dart(a) != d2.is_over_dart(b):
                ok = False
                break
            for step in range(4):
                a2 = 4 * (a >> 2) + ((a + step) & 3)
                b2 = 4 * (b >> 2) + ((b + step) & 3)
                pa, pb = d1.partner[a2], d2.partner[b2]
                for x, y in ((a2, b2), (pa, pb)):
                    if x in image:
                        if image[x] != y:
                            ok = False
                    else:
                        image[x] = y
                        queue.append(x)
                if not ok:
                    break
        if ok and len(image) == d1.num_darts:
            values = sorted(image.values())
            if values == list(range(d2.num_darts)):
                return True
    return False


def random_relabelings(pd, seed=0):
    rng = random.Random(seed)
    tuples = [list(t) for t in pd]
    for _ in range(6):
        rng.shuffle(tuples)
        rotated = [t[2:] + t[:2] if rng.random() < 0.5 else list(t) for t in tuples]
        labels = sorted({x for t in rotated for x in t})
        perm = dict(zip(labels, rng.sample(labels, len(labels))))
        yield [tuple(perm[x] for x in t) for t in rotated]


def test_code_invariant_under_relabeling(trefoil, fig8):
    for base, pd in ((trefoil, TREFOIL_PD),):
        code = canonical_code(base)
        for variant in random_relabelings(pd):
            assert canonical_code(build_from_crossing_list(variant)) == code


def test_code_distinguishes_mirror(trefoil, trefoil_mirror):
    assert canonical_code(trefoil) != canonical_code(trefoil_mirror)
    assert canonical_code(trefoil, include_reflection=True) == \
        canonical_code(trefoil_mirror, include_reflection=True)


def test_code_distinguishes_knots(trefoil, fig8):
    assert canonical_code(trefoil) != canonical_code(fig8)


def test_code_agrees_with_explicit_isomorphism(table_diagrams, trefoil,
                                               trefoil_mirror, hopf):
    small = [d for d in (trefoil, trefoil_mirror, hopf,
                         table_diagrams["4_1"], table_diagrams["5_1"],
                         table_diagrams["5_2"]) if d.n <= 5]
    for d1, d2 in itertools.combinations(small, 2):
        same_code = canonical_code(d1) == canonical_code(d2)
        assert same_code == explicit_isomorphism_exists(d1, d2)
    for d in small:
        assert explicit_isomorphism_exists(d, d)


def test_orbit_sizes(trefoil, fig8):
    assert flype_orbit(trefoil, max_nodes=50, max_depth=20).size == 1
    assert flype_orbit(fig8, max_nodes=50, max_depth=20).size == 1


def test_orbit_members_share_invariants(table_diagrams):
    for name in ("7_5", "8_8", "8_15"):
        report = flype_orbit(table_diagrams[name], max_nodes=200, max_depth=60)
        assert not report.truncated
        assert report.size >= 2
        assert report.invariants == invariant_vector(table_diagrams[name])


def test_orbit_seed_independent(table_diagrams):
    d = table_diagrams["8_8"]
    report = flype_orbit(d, max_nodes=200, max_depth=60)
    assert report.size >= 2
    # re-run the closure from another member: same set of codes
    other = apply_flype(d, next(
        s for s in find_flype_sites(d)
        if canonical_code(apply_flype(d, s)) != canonical_code(d)))
    report2 = flype_orbit(other, max_nodes=200, max_depth=60)
    assert report.members == report2.members


def test_orbit_truncation(table_diagrams):
    report = flype_orbit(table_diagrams["8_8"], max_nodes=1, max_depth=60)
    assert report.truncated and report.size == 1


def test_orbit_report_json_and_dot(table_diagrams):
    report = flype_orbit(table_diagrams["7_5"], max_nodes=100, max_depth=50)
    payload = report.to_json()
    assert set(payload) == {"seeds", "members", "edges", "invariants",
                            "truncated", "limits"}
    dot = report.to_dot()
    assert dot.startswith("graph") and dot.count('"') >= 2 * report.size


def test_related_one_flype(table_diagrams):
    d = table_diagrams["8_10"]
    out = apply_flype(d, find_flype_sites(d)[0])
    assert is_flype_related(d, out).verdict is Relation.RELATED


def test_distinguished(trefoil, fig8):
    rel = is_flype_related(trefoil, fig8)
    assert rel.verdict is Relation.DISTINGUISHED
    assert rel.invariant == "crossing_number"


def test_related_tagged_pairs(table, table_diagrams):
    pairs = [(doc.tags["same_as"], doc.name) for doc in table
             if "same_as" in doc.tags]
    assert len(pairs) >= 5
    for original, variant in pairs[:5]:
        rel = is_flype_related(table_diagrams[original],
                               table_diagrams[variant], max_nodes=10_000)
        assert rel.verdict is Relation.RELATED, (original, variant)


@pytest.mark.parametrize("max_depth", [1, 1000])
def test_early_exit_keeps_full_orbit_verdict(table, table_diagrams, max_depth):
    """``is_flype_related`` stops once the target is admitted; at every node
    limit up to one past the orbit size its verdict is the one read off the
    full ``flype_orbit``."""
    pairs = [(table_diagrams[doc.tags["same_as"]], table_diagrams[doc.name])
             for doc in table if "same_as" in doc.tags]
    assert len(pairs) == 15
    pairs.append((montesinos_diagram([[2], [3], [2], [3]]),
                  montesinos_diagram([[2], [2], [3], [3]])))
    for a, b in pairs:
        target = canonical_code(b)
        size = flype_orbit(a, max_depth=max_depth).size
        for k in range(1, size + 2):
            report = flype_orbit(a, max_nodes=k, max_depth=max_depth)
            rel = is_flype_related(a, b, max_nodes=k, max_depth=max_depth)
            if target in report.members:
                assert rel.verdict is Relation.RELATED
            else:
                assert rel.verdict is Relation.NOT_RELATED_WITHIN
                assert (rel.explored, rel.truncated) == (report.size, report.truncated)
    # the mutant pair, past its orbit size: exhaustive, hence conclusive
    assert rel.verdict is Relation.NOT_RELATED_WITHIN and not rel.truncated


def test_not_related_exhaustive(table_diagrams):
    # same invariant vector would be needed to reach the BFS, so craft one:
    # mirror pair of an amphichiral knot is flype-related (4_1), while
    # distinct knots with equal vectors are not; 8_8 vs its own orbit check
    d = table_diagrams["4_1"]
    rel = is_flype_related(d, mirror_diagram(d))
    assert rel.verdict in (Relation.RELATED, Relation.NOT_RELATED_WITHIN)
    if rel.verdict is Relation.NOT_RELATED_WITHIN:
        assert not rel.truncated  # exhaustive, hence conclusive


def test_precondition_failures(kink, granny, trefoil):
    for bad in (kink, granny):
        with pytest.raises(PreconditionFailed):
            flype_orbit(bad, max_nodes=10, max_depth=5)
        with pytest.raises(PreconditionFailed):
            is_flype_related(bad, trefoil)
