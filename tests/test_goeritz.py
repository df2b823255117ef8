import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taitkit.codecs import parse_gauss
from taitkit.diagram import Color, color_chessboard, is_reduced, writhe
from taitkit.goeritz import (
    Definiteness,
    NotAlternating,
    SymmetricIntForm,
    beta1_chessboard,
    check_identities,
    chessboard_summaries,
    definiteness,
    goeritz_matrix,
    link_determinant,
    signature,
    slopes,
)


def _det(rows: list[list[int]]) -> int:
    """Cofactor-expansion determinant; an oracle independent of the
    elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum(
        (-1) ** j * rows[0][j]
        * _det([[rows[i][k] for k in range(n) if k != j] for i in range(1, n)])
        for j in range(n)
    )


def oracle_definiteness(f: SymmetricIntForm, bound: int = 3) -> Definiteness:
    """Classify by scanning all integer vectors with entries in
    [-bound, bound]; independent of the congruence diagonalization."""
    if f.dim == 0:
        return Definiteness.POSITIVE
    seen_pos = seen_neg = False
    isotropic = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=f.dim):
        if not any(vec):
            continue
        value = f.evaluate(vec)
        if value > 0:
            seen_pos = True
        elif value < 0:
            seen_neg = True
        else:
            isotropic.append(vec)
    if seen_pos and seen_neg:
        return Definiteness.INDEFINITE
    for vec in isotropic:
        image = [sum(f.entries[i][j] * vec[j] for j in range(f.dim))
                 for i in range(f.dim)]
        if any(image):
            # an isotropic vector outside the kernel rules out semidefiniteness
            return Definiteness.INDEFINITE
    if isotropic:
        return Definiteness.DEGENERATE
    return Definiteness.POSITIVE if seen_pos else Definiteness.NEGATIVE


def test_trefoil_goeritz_matrices(trefoil):
    coloring = color_chessboard(trefoil)
    three_region = Color.BLACK if coloring.count(Color.BLACK) == 3 else Color.WHITE
    m3 = goeritz_matrix(trefoil, coloring, three_region)
    m2 = goeritz_matrix(trefoil, coloring, three_region.opposite())
    assert m3.entries == ((2, -1), (-1, 2))
    assert m2.entries == ((-3,),)
    assert abs(m3.determinant()) == 3 and abs(m2.determinant()) == 3


def test_hopf_goeritz(hopf):
    coloring = color_chessboard(hopf)
    dets = set()
    for color in (Color.BLACK, Color.WHITE):
        m = goeritz_matrix(hopf, coloring, color)
        assert m.dim == 1 and abs(m.entries[0][0]) == 2
        dets.add(m.determinant())
    assert dets == {2, -2}


def test_fig8_goeritz(fig8):
    coloring = color_chessboard(fig8)
    for color in (Color.BLACK, Color.WHITE):
        m = goeritz_matrix(fig8, coloring, color)
        assert m.dim == 2
        assert abs(m.determinant()) == 5


def test_definiteness_examples():
    assert definiteness(SymmetricIntForm.from_rows([[2, -1], [-1, 2]])) is Definiteness.POSITIVE
    assert definiteness(SymmetricIntForm.from_rows([[-2]])) is Definiteness.NEGATIVE
    assert definiteness(SymmetricIntForm.from_rows([[1, 2], [2, 1]])) is Definiteness.INDEFINITE
    assert definiteness(SymmetricIntForm.from_rows([[1, 1], [1, 1]])) is Definiteness.DEGENERATE
    assert definiteness(SymmetricIntForm.from_rows([[0, 3], [3, 0]])) is Definiteness.INDEFINITE
    assert definiteness(SymmetricIntForm.from_rows([])) is Definiteness.POSITIVE


@pytest.mark.parametrize("entries", [((1, 0),), ((0, 1), (2, 0)), ((0.5,),)])
def test_form_rejects_bad_entries(entries):
    with pytest.raises(ValueError):
        SymmetricIntForm(entries)


def test_singular_form_taking_both_signs_is_degenerate():
    f = SymmetricIntForm.from_rows([[1, -1, 1], [-1, 0, -1], [1, -1, 1]])
    assert signature(f) == (1, 1, 1)
    assert definiteness(f) is Definiteness.DEGENERATE


def test_signature_hyperbolic_block():
    assert signature(SymmetricIntForm.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(SymmetricIntForm.from_rows([[0, 0], [0, 0]])) == (0, 0, 2)
    assert signature(SymmetricIntForm.from_rows(
        [[0, 2, 0], [2, 0, 0], [0, 0, -3]])) == (1, 2, 0)
    # two shear steps, the second after the pivot -1
    assert signature(SymmetricIntForm.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])) == (2, 2, 0)


def test_definiteness_matches_oracle_on_table_forms(table_diagrams):
    checked = 0
    for d in table_diagrams.values():
        coloring = color_chessboard(d)
        for color in (Color.BLACK, Color.WHITE):
            f = goeritz_matrix(d, coloring, color)
            if f.dim <= 4:
                assert definiteness(f) is oracle_definiteness(f)
                checked += 1
    assert checked >= 20


def test_definiteness_matches_oracle_on_small_forms():
    entries = range(-2, 3)
    for dim in (1, 2):
        for flat in itertools.product(entries, repeat=dim * (dim + 1) // 2):
            rows = [[0] * dim for _ in range(dim)]
            it = iter(flat)
            for i in range(dim):
                for j in range(i, dim):
                    rows[i][j] = rows[j][i] = next(it)
            f = SymmetricIntForm.from_rows(rows)
            assert definiteness(f) is oracle_definiteness(f), rows
            assert f.determinant() == _det(rows), rows


@st.composite
def small_symmetric_rows(draw, min_dim=3, max_dim=6):
    """Symmetric rows of dim ``min_dim``-``max_dim`` with entries in
    [-3, 3], drawn in shapes that reach every branch of the elimination:
    any entries, an all-zero diagonal (shear steps), a repeated basis
    vector (two equal rows, so singular) and a dominant diagonal (mostly
    definite)."""
    dim = draw(st.integers(min_dim, max_dim))
    shape = draw(st.sampled_from(["any", "zero_diagonal", "repeated", "dominant"]))
    off = st.integers(-1, 1) if shape == "dominant" else st.integers(-3, 3)
    diagonal = draw(st.sampled_from([3, -3])) if shape == "dominant" else None
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = draw(off)
    for i in range(dim):
        if shape == "zero_diagonal":
            rows[i][i] = 0
        elif shape == "dominant":
            rows[i][i] = diagonal
    if shape == "repeated":
        index = list(range(dim - 1)) + [0]
        rows = [[rows[a][b] for b in index] for a in index]
    return rows


@settings(max_examples=200, deadline=None)
@given(small_symmetric_rows())
@example([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
@example([[0, 0, 0, 0], [0, 0, 2, 0], [0, 2, 0, 0], [0, 0, 0, 0]])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
@example([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
@example([[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]])
@example([[1, -1, 1], [-1, 0, -1], [1, -1, 1]])
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
def test_elimination_matches_oracles_on_dim_3_and_4(rows):
    f = SymmetricIntForm.from_rows(rows)
    det = _det(rows)
    assert f.determinant() == det
    if det == 0:
        # any kernel classifies the form Degenerate; the oracle calls a
        # singular form Indefinite when it takes both signs
        assert definiteness(f) is Definiteness.DEGENERATE
    elif len(rows) <= 4:
        assert definiteness(f) is oracle_definiteness(f)
    else:
        # the vector scan is too slow above dim 4: Sylvester's criterion
        # on the cofactor leading minors instead
        minors = [_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]
        if all(x > 0 for x in minors):
            expected = Definiteness.POSITIVE
        elif all((-1) ** k * x > 0 for k, x in enumerate(minors, 1)):
            expected = Definiteness.NEGATIVE
        else:
            expected = Definiteness.INDEFINITE
        assert definiteness(f) is expected


@settings(max_examples=100, deadline=None)
@given(small_symmetric_rows(1, 8), st.data())
def test_elimination_invariant_under_integer_shears(rows, data):
    dim = len(rows)
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(data.draw(st.integers(0, 6))):
        i = data.draw(st.integers(0, dim - 1))
        j = data.draw(st.integers(0, dim - 1))
        if i == j:
            continue
        k = data.draw(st.integers(-2, 2))
        for col in range(dim):
            u[i][col] += k * u[j][col]
    f = SymmetricIntForm.from_rows(rows)
    g = SymmetricIntForm.from_rows(
        [[sum(u[k][i] * rows[k][l] * u[l][j] for k in range(dim) for l in range(dim))
          for j in range(dim)] for i in range(dim)])
    assert signature(g) == signature(f)
    assert g.determinant() == f.determinant()


def test_beta1(trefoil, fig8):
    coloring = color_chessboard(trefoil)
    values = {color: beta1_chessboard(trefoil, coloring, color)
              for color in (Color.BLACK, Color.WHITE)}
    assert sorted(values.values()) == [1, 2]
    two_region = Color.BLACK if coloring.count(Color.BLACK) == 2 else Color.WHITE
    assert values[two_region] == 2

    coloring8 = color_chessboard(fig8)
    assert (beta1_chessboard(fig8, coloring8, Color.BLACK)
            + beta1_chessboard(fig8, coloring8, Color.WHITE)) == fig8.n


def test_beta1_sums_to_crossing_number(table_diagrams):
    for name, d in table_diagrams.items():
        coloring = color_chessboard(d)
        total = (beta1_chessboard(d, coloring, Color.BLACK)
                 + beta1_chessboard(d, coloring, Color.WHITE))
        assert total == d.n, name


def test_slopes_trefoil(trefoil, trefoil_mirror, fig8):
    assert slopes(trefoil) == (6, 0)
    assert slopes(trefoil_mirror) == (0, -6)
    assert slopes(fig8) == (4, -4)


def test_slopes_identities(table_diagrams):
    for name, d in table_diagrams.items():
        s_b, s_w = slopes(d)
        assert (s_b - s_w) // 2 == d.n, name
        assert (s_b + s_w) // 2 == writhe(d), name


def test_slopes_requires_alternating():
    # the connected sum with one crossing switched is no longer alternating
    from taitkit.diagram import build_from_crossing_list
    from conftest import GRANNY_PD

    bad = build_from_crossing_list([(4, 2, 5, 1)] + GRANNY_PD[1:])
    with pytest.raises(NotAlternating):
        slopes(bad)


def test_summaries_label_by_sign(table_diagrams):
    for name, d in table_diagrams.items():
        b, w = chessboard_summaries(d)
        assert b.definiteness is Definiteness.POSITIVE, name
        assert w.definiteness is Definiteness.NEGATIVE, name
        assert b.beta1 == b.form.dim and w.beta1 == w.form.dim
        assert b.slope % 2 == 0 and w.slope % 2 == 0


def test_check_identities_trefoil(trefoil, hopf):
    assert check_identities(trefoil).all_passed
    report = check_identities(hopf)
    assert report.all_passed
    assert {c.check for c in report.checks} >= {
        "definite_dichotomy", "slope_betti_sum", "slope_crossing_count",
        "reduced_no_unit_self_pairing", "determinants_agree"}


def test_check_identities_kinked_trefoil():
    kinked = parse_gauss("O1+U2+O3+U1+O2+U3+O4+U4+")
    assert not is_reduced(kinked)
    report = check_identities(kinked)
    failed = {c.check for c in report.checks if not c.passed}
    assert "reduced_no_unit_self_pairing" in failed


def test_check_identities_json(trefoil):
    payload = check_identities(trefoil).to_json()
    assert all(set(item) == {"check", "pass", "detail"} for item in payload)


def test_determinants_match_tags(table, table_diagrams):
    for doc in table:
        expected = int(doc.tags["determinant"])
        assert link_determinant(table_diagrams[doc.name]) == expected, doc.name


def test_hand_checked_determinants(trefoil, fig8, hopf):
    assert link_determinant(trefoil) == 3
    assert link_determinant(fig8) == 5
    assert link_determinant(hopf) == 2
