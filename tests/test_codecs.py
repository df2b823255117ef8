import json

import pytest

from taitkit.codecs import (
    CodeSyntaxError,
    NonRealizable,
    SchemaError,
    load_table,
    parse_gauss,
    parse_pd_text,
    serialize_pd,
)
from taitkit.diagram import build_from_crossing_list, mirror_diagram, writhe
from taitkit.orbit import canonical_code

def test_parse_pd_bracketed():
    assert parse_pd_text("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]") == [
        (1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]


def test_parse_pd_lines():
    assert parse_pd_text("1 4 2 5\n3 6 4 1\n5 2 6 3") == [
        (1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]


def test_parse_pd_whitespace_tolerant():
    assert parse_pd_text("PD[ X[ 1 , 4 , 2 , 5 ] ]") == [(1, 4, 2, 5)]


def test_parse_pd_bad_arity():
    with pytest.raises(CodeSyntaxError):
        parse_pd_text("PD[X[1,2,3]]")


def test_parse_pd_error_position():
    with pytest.raises(CodeSyntaxError) as err:
        parse_pd_text("1 4 2 5\n3 6 4\n5 2 6 3")
    assert err.value.line == 2


def test_parse_pd_bracketed_rejects_non_positive_labels():
    with pytest.raises(CodeSyntaxError, match="labels must be positive") as err:
        parse_pd_text("PD[X[1,4,2,5],\n  X[3,6,0,1]]")
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(CodeSyntaxError, match="labels must be positive"):
        parse_pd_text("PD[X[0,1,2,3]]")


def test_parse_pd_rejects_garbage():
    with pytest.raises(CodeSyntaxError):
        parse_pd_text("1 4 two 5")
    with pytest.raises(CodeSyntaxError):
        parse_pd_text("")


def test_serialize_round_trip(table):
    for doc in table:
        d = doc.build()
        rebuilt = build_from_crossing_list(parse_pd_text(serialize_pd(d)))
        assert canonical_code(rebuilt) == canonical_code(d), doc.name


def test_gauss_trefoil(trefoil):
    d = parse_gauss("O1+U2+O3+U1+O2+U3+")
    assert d.n == 3
    assert writhe(d) == 3
    assert canonical_code(d) == canonical_code(trefoil)


def test_gauss_kink():
    d = parse_gauss("O1+U1+")
    assert d.n == 1
    assert len(d.faces) == 3


def test_gauss_two_crossing_clasp(hopf):
    d = parse_gauss("O1+U2+\nO2+U1+")
    assert d.n == 2 and d.num_components == 2
    codes = {canonical_code(hopf), canonical_code(mirror_diagram(hopf))}
    assert canonical_code(d) in codes


def test_gauss_one_component_two_crossings():
    d = parse_gauss("O1+U2+O2+U1+")
    assert d.n == 2 and d.num_components == 1
    assert len(d.faces) == 4


def test_gauss_sign_controls_chirality():
    plus = parse_gauss("O1+U2+O3+U1+O2+U3+")
    minus = parse_gauss("O1-U2-O3-U1-O2-U3-")
    assert canonical_code(plus) != canonical_code(minus)
    assert canonical_code(mirror_diagram(plus)) == canonical_code(minus)


def test_gauss_nonrealizable():
    with pytest.raises(NonRealizable):
        parse_gauss("O1+U2+O3+U1+U3+O2+")  # scrambled pairing, no sphere map
    with pytest.raises(NonRealizable):
        parse_gauss("O1+O1+")


def test_gauss_syntax_error():
    with pytest.raises(CodeSyntaxError):
        parse_gauss("O1+U2")


def test_load_table_round_trip(tmp_path, table):
    path = tmp_path / "table.json"
    payload = [{"name": doc.name, "pd": [list(t) for t in doc.pd],
                "tags": doc.tags} for doc in table[:3]]
    path.write_text(json.dumps(payload))
    docs = load_table(path)
    assert [d.name for d in docs] == [d.name for d in table[:3]]


def test_load_table_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert load_table(path) == []


def test_load_table_reports_bad_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([
        {"name": "ok", "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]},
        {"name": "ok2", "pd": [[1, 1, 2, 2]]},
        {"name": "broken", "pd": [[1, 2, 3]]},
        {"name": "boolean", "pd": [[True, 1, 2, 2]]},
        {"name": "ok", "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]},
    ]))
    with pytest.raises(SchemaError) as err:
        load_table(path)
    assert err.value.indices == [2, 3, 4]


def test_load_table_missing_file():
    with pytest.raises(OSError):
        load_table("/nonexistent/table.json")


def test_bundled_table_contents(table):
    names = {doc.name for doc in table}
    expected = {f"{n}_{k}" for n, count in ((3, 1), (4, 1), (5, 2), (6, 3), (7, 7), (8, 18))
                for k in range(1, count + 1)}
    assert expected <= names
    assert len(table) >= 18
    assert "hopf" in names


def test_bundled_table_tags(table):
    for doc in table:
        assert "determinant" in doc.tags
        assert int(doc.tags["crossings"]) == doc.build().n


def test_pd_and_gauss_agree_on_fig8(fig8):
    # standard figure-eight traversal, signs matching the artifact convention
    signs = {}
    d = None
    for pattern in ("O1+U2+O3-U4-O2+U1+O4-U3-", "O1-U2-O3+U4+O2-U1-O4+U3+"):
        try:
            d = parse_gauss(pattern)
        except NonRealizable:
            continue
        if canonical_code(d) == canonical_code(fig8):
            break
    assert d is not None
    assert canonical_code(d) in {canonical_code(fig8),
                                 canonical_code(mirror_diagram(fig8))}
