import random

import pytest

import generate
from taitkit.diagram import build_from_crossing_list
from taitkit.orbit import canonical_code


def tables(items):
    return [(item.name, item.argv, item.table, item.expect) for item in items]


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert tables(generate.build_workload(workload, 7)) == \
        tables(generate.build_workload(workload, 7))


def test_seed_changes_labels_not_families():
    a = generate.build_workload("flype_check", 1)
    b = generate.build_workload("flype_check", 2)
    assert [i.expect for i in a] == [i.expect for i in b]
    assert [i.table for i in a] != [i.table for i in b]
    # the related pairs' walks end on the same diagrams whatever the seed
    ends = [[canonical_code(build_from_crossing_list(i.table[0]["pd"]))
             for i in items if i.cls == "related"] for items in (a, b)]
    assert ends[0] == ends[1]


@pytest.mark.parametrize("spec", [
    ("rational", (2, 2, 2, 2, 2)),                   # two components
    ("montesinos", ((2, 1), (3, 1), (2,))),
    ("braid3", (2, 1, 2, 1, 2, 1)),
])
def test_relabeling_keeps_the_diagram(spec):
    d = generate.build_spec(spec)
    rng = random.Random(3)
    for _ in range(3):
        rebuilt = build_from_crossing_list(generate.relabeled_pd(d, rng))
        assert canonical_code(rebuilt) == canonical_code(d)


def test_determinant_formulas_match_the_bundled_table():
    # 8_5, 8_10 and 8_15 are Montesinos sums; 8_12 is rational
    assert generate.expected_determinant(("montesinos", ((3,), (3,), (2,)))) == 21
    assert generate.expected_determinant(("montesinos", ((3,), (2, 1), (2,)))) == 27
    assert generate.expected_determinant(("montesinos", ((2, 1), (2, 1), (2,)))) == 33
    assert generate.expected_determinant(("rational", (2, 2, 2, 2))) == 29


def test_table_manifest_states_dims_and_cap():
    items = generate.build_workload("table_invariants", 0)
    assert all(item.manifest["form_dim_cap"] == generate.FORM_DIM_CAP for item in items)
    dims = [tuple(item.manifest["form_dims"]) for item in items]
    assert max(d[0] for d in dims) == generate.FORM_DIM_CAP
    assert any(d[0] == 6 for d in dims)
    # one command per entry, each expecting the determinant of its one entry
    assert all(len(item.table) == 1 for item in items)
    assert len({item.name for item in items}) == len(items)
    for item in items:
        expected = {**item.expect["determinants"], **item.expect["reference_determinants"]}
        assert list(expected) == [item.table[0]["name"]]


def test_related_pairs_differ_in_code():
    for item in generate.build_workload("flype_check", 4):
        if item.cls == "related":
            a, b = (build_from_crossing_list(e["pd"]) for e in item.table)
            assert canonical_code(a) != canonical_code(b)
