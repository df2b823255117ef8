import pytest

from taitkit.diagram import (
    Color,
    DisconnectedAmbient,
    MalformedCode,
    NonPlanar,
    assemble_diagram,
    build_from_crossing_list,
    color_chessboard,
    crossing_signs,
    is_alternating,
    is_prime_diagram,
    is_reduced,
    trace_regions,
    writhe,
)

from conftest import GRANNY_PD, TREFOIL_PD


def test_trefoil_build(trefoil):
    assert trefoil.n == 3
    assert trefoil.num_edges == 6
    assert len(trefoil.faces) == 5


def test_hopf_build(hopf):
    assert hopf.n == 2
    assert hopf.num_edges == 4
    assert len(hopf.faces) == 4
    assert hopf.num_components == 2


def test_kink_build(kink):
    assert kink.n == 1
    assert len(kink.faces) == 3


def test_malformed_label_count():
    with pytest.raises(MalformedCode):
        build_from_crossing_list([(1, 2, 3, 4)])


SPLIT_MESSAGE = "crossing list splits into 1 of 2 crossings and more"
NONPLANAR_MESSAGE = "2 faces for 2 crossings; sphere needs 4"


def test_split_code_rejected():
    # two disjoint kinks
    with pytest.raises(DisconnectedAmbient, match=f"^{SPLIT_MESSAGE}$"):
        build_from_crossing_list([(1, 1, 2, 2), (3, 3, 4, 4)])


def test_nonplanar_rejected():
    # gluing with too few faces to be a sphere map
    with pytest.raises(NonPlanar, match=f"^{NONPLANAR_MESSAGE}$"):
        build_from_crossing_list([(1, 2, 3, 4), (1, 2, 3, 4)])


def test_assembled_split_map_rejected(kink):
    # two disjoint copies of the kink's map data
    partner = kink.partner + tuple(p + 4 for p in kink.partner)
    labels = kink.edge_label + tuple(x + 2 for x in kink.edge_label)
    with pytest.raises(DisconnectedAmbient, match=f"^{SPLIT_MESSAGE}$"):
        assemble_diagram(partner, kink.over_even * 2, labels, kink.forward * 2)


def test_assembled_nonplanar_map_rejected():
    # slot k of crossing 0 glued to slot k of crossing 1: a torus map
    partner = (4, 5, 6, 7, 0, 1, 2, 3)
    forward = (True, True, False, False, False, False, True, True)
    with pytest.raises(NonPlanar, match=f"^{NONPLANAR_MESSAGE}$"):
        assemble_diagram(partner, (False, False), (1, 2, 3, 4) * 2, forward)


def test_region_degrees(trefoil, hopf, kink):
    assert sorted(r.degree for r in trace_regions(trefoil)) == [2, 2, 2, 3, 3]
    assert sorted(r.degree for r in trace_regions(hopf)) == [2, 2, 2, 2]
    assert sorted(r.degree for r in trace_regions(kink)) == [1, 1, 2]


def test_regions_partition_corners(table_diagrams):
    for d in table_diagrams.values():
        regions = trace_regions(d)
        assert len(regions) == d.n + 2
        all_darts = sorted(x for r in regions for x in r.boundary)
        assert all_darts == list(range(d.num_darts))


def test_coloring_proper(trefoil, hopf, kink, table_diagrams):
    for d in [trefoil, hopf, kink, *table_diagrams.values()]:
        coloring = color_chessboard(d)
        for dart in range(d.num_darts):
            a = coloring.color_of_dart(dart)
            b = coloring.color_of_dart(d.partner[dart])
            assert a is not b and Color.UNCOLORED not in (a, b)


def test_coloring_anchor_deterministic(trefoil, hopf, kink):
    assert color_chessboard(trefoil).count(Color.BLACK) == 3
    assert color_chessboard(trefoil).count(Color.WHITE) == 2
    assert color_chessboard(hopf).count(Color.BLACK) == 2
    assert color_chessboard(hopf).count(Color.WHITE) == 2
    counts = {color_chessboard(kink).count(Color.BLACK),
              color_chessboard(kink).count(Color.WHITE)}
    assert counts == {1, 2}


def test_alternating(trefoil, hopf, granny):
    assert is_alternating(trefoil)
    assert is_alternating(hopf)
    assert is_alternating(granny)


def test_switched_crossing_not_alternating():
    switched = [(4, 2, 5, 1)] + GRANNY_PD[1:]
    assert not is_alternating(build_from_crossing_list(switched))


def test_reduced(trefoil, hopf, kink):
    assert is_reduced(trefoil)
    assert is_reduced(hopf)
    assert not is_reduced(kink)


def test_kink_edge_criterion(kink):
    # an edge with both ends at one crossing in adjacent slots forces unreduced
    has_adjacent_loop = any(
        dart >> 2 == kink.partner[dart] >> 2
        and ((dart - kink.partner[dart]) % 4 in (1, 3))
        for dart in range(kink.num_darts)
    )
    assert has_adjacent_loop and not is_reduced(kink)


def test_prime(trefoil, hopf, granny):
    assert is_prime_diagram(trefoil)
    assert is_prime_diagram(hopf)
    assert not is_prime_diagram(granny)


def test_trefoil_signs(trefoil, trefoil_mirror):
    assert crossing_signs(trefoil) == {0: 1, 1: 1, 2: 1}
    assert writhe(trefoil) == 3
    assert writhe(trefoil_mirror) == -3


def test_fig8_signs(fig8):
    assert sorted(crossing_signs(fig8).values()) == [-1, -1, 1, 1]
    assert writhe(fig8) == 0


def test_writhe_invariant_under_full_reversal(table_diagrams):
    for d in table_diagrams.values():
        assert writhe(d.reverse_components()) == writhe(d)


def test_single_component_reversal_changes_only_orientation(hopf):
    reversed_one = hopf.reverse_components({0})
    assert reversed_one.partner == hopf.partner
    assert reversed_one.forward != hopf.forward


def test_dart_invariants(table_diagrams):
    for d in table_diagrams.values():
        assert len(d.partner) == d.num_darts
        for dart, p in enumerate(d.partner):
            assert p != dart
            assert d.partner[p] == dart
        for c in range(d.n):
            darts = [d.dart(c, k) for k in range(4)]
            assert [d.crossing_of(x) for x in darts] == [c] * 4
            assert sorted(d.slot_of(x) for x in darts) == [0, 1, 2, 3]


def test_components_partition_edges(hopf, trefoil):
    comps = hopf.components
    assert len(comps) == 2
    assert sorted(sum((list(e) for e in comps.values()), [])) == [1, 2, 3, 4]
    assert list(trefoil.components) == [0]


def test_relabeled_presentation_same_structure():
    perm = {1: 3, 2: 6, 3: 1, 4: 5, 5: 2, 6: 4}
    relabeled = build_from_crossing_list(
        [tuple(perm[x] for x in t) for t in TREFOIL_PD])
    assert sorted(r.degree for r in trace_regions(relabeled)) == [2, 2, 2, 3, 3]
    assert writhe(relabeled) == 3
