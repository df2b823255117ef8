"""Chessboard Goeritz forms, exact definiteness, slopes, and identity checks.

The form attached to a color class is built from that class's regions
``R_0 .. R_m``: for ``i != j`` the entry ``x_ij`` is ``-sum(eta(c))`` over
crossings whose same-color corner pair joins ``R_i`` and ``R_j``, diagonal
entries make every row sum to zero, and row/column 0 is deleted.  The
crossing sign ``eta(c)`` is ``+1`` when the color's two corners at ``c``
sit counterclockwise-after the understrand darts and ``-1`` otherwise;
this normalization makes the 3-region class of the right-handed trefoil
produce ``[[2, -1], [-1, 2]]``.

A form built from the regions of one color represents the pairing on the
first homology of the chessboard surface of the *opposite* color; the
dimensions match because a connected ``r``-region chessboard on an
``n``-crossing diagram has first Betti number ``n - r + 1``.

All arithmetic is exact: inertia and determinant of a form both come from
one fraction-free (Bareiss) symmetric elimination over the integers, with
Jacobi's sign rule on the leading principal minors, run at most once per
form, never from floating point.  Each diagram's two forms are built once
per analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .diagram import (
    Color,
    Coloring,
    Diagram,
    DiagramError,
    PreconditionFailed,
    _DisjointSets,
    color_chessboard,
    crossing_signs,
    is_alternating,
    is_reduced,
)


class DisconnectedChessboard(DiagramError):
    pass


class NotAlternating(DiagramError):
    pass


class Definiteness(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SymmetricIntForm:
    """A symmetric integer matrix; dimension 0 is the empty form."""

    entries: tuple[tuple[int, ...], ...]
    # ``_eliminate(entries)``, filled in on first use.  A declared field, not
    # a cached_property: writing into the instance ``__dict__`` would slow
    # every later attribute read, and the unit search reads them in its loop.
    _elimination_result: tuple[int, int, int, int] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.entries)
        for row in self.entries:
            if len(row) != m:
                raise ValueError("entries must be square")
            if not all(isinstance(x, int) for x in row):
                raise ValueError("entries must be integers")
        for i in range(m):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"entries not symmetric at ({i}, {j})")

    @staticmethod
    def from_rows(rows) -> "SymmetricIntForm":
        return SymmetricIntForm(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        """Exact determinant (empty form has determinant 1)."""
        return self._elimination[3]

    def evaluate(self, v: tuple[int, ...]) -> int:
        """Self-pairing of the integer vector ``v``."""
        return sum(
            v[i] * self.entries[i][j] * v[j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    @property
    def _elimination(self) -> tuple[int, int, int, int]:
        if self._elimination_result is None:
            object.__setattr__(self, "_elimination_result", _eliminate(self.entries))
        return self._elimination_result


def _eliminate(entries: tuple[tuple[int, ...], ...]) -> tuple[int, int, int, int]:
    """``(positive, negative, zero, determinant)`` from one fraction-free
    (Bareiss) symmetric elimination over the integers.

    After step ``k`` every remaining entry is a ``(k+1)``-minor, so each
    division is exact, and the pivots are the leading principal minors
    ``D_1, D_2, ...``; by Jacobi's rule the ``k``-th diagonal entry of
    the congruent diagonal form has the sign of ``D_k * D_(k-1)``.  A zero
    pivot is replaced by a symmetric swap with a nonzero diagonal entry,
    or, when the whole remaining diagonal is zero, by the unimodular
    congruence ``e_i += e_j`` on a nonzero ``a_ij``, which makes
    ``a_ii = 2 * a_ij``; neither changes inertia or determinant.  An
    all-zero remainder is the kernel and makes the determinant 0.
    """
    m = len(entries)
    a = [list(row) for row in entries]
    pos = neg = 0
    prev = 1

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for k in range(m):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, m) if a[i][i] != 0), None)
            if piv is None:
                off = next(((i, j) for i in range(k, m) for j in range(i + 1, m)
                            if a[i][j] != 0), None)
                if off is None:
                    return pos, neg, m - k, 0
                piv, j = off
                for row in a:
                    row[piv] += row[j]
                a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            swap(k, piv)
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        rk = a[k]
        for i in range(k + 1, m):
            ri = a[i]
            aik = ri[k]
            for j in range(i, m):
                q, r = divmod(p * ri[j] - aik * rk[j], prev)
                if r:
                    raise ArithmeticError(
                        f"inexact Bareiss division by {prev} at step {k}")
                ri[j] = a[j][i] = q
        prev = p
    return pos, neg, 0, prev


def signature(f: SymmetricIntForm) -> tuple[int, int, int]:
    """Inertia ``(positive, negative, zero)`` of the real form, exactly."""
    return f._elimination[:3]


def definiteness(f: SymmetricIntForm) -> Definiteness:
    """Exact classification of the real signature.

    Every singular form is Degenerate, also one that takes both signs
    (such as ``[[1, -1, 1], [-1, 0, -1], [1, -1, 1]]``); Indefinite means
    nonsingular with both signs.  The empty form is classified Positive
    by convention; it only arises from chessboards that are disks.
    """
    if f.dim == 0:
        return Definiteness.POSITIVE
    pos, neg, zero = signature(f)
    if zero > 0:
        return Definiteness.DEGENERATE
    if pos == f.dim:
        return Definiteness.POSITIVE
    if neg == f.dim:
        return Definiteness.NEGATIVE
    return Definiteness.INDEFINITE


# --------------------------------------------------------------------------
# chessboard forms


def _corners(
    d: Diagram, coloring: Coloring, color: Color, crossing: int
) -> tuple[int, int, int]:
    """Region ids of the two same-color corners at a crossing, and the
    Goeritz crossing sign eta for that shading."""
    base = 4 * crossing
    rof = coloring.region_of_dart
    k = 0 if coloring.regions[rof[base]].color is color else 1
    return rof[base + k], rof[base + k + 2], -1 if d.is_over_dart(base + k) else 1


def goeritz_matrix(d: Diagram, coloring: Coloring, color: Color) -> SymmetricIntForm:
    """The Goeritz form built from the regions of the given color."""
    region_ids = [r.id for r in coloring.regions_of(color)]
    index = {rid: i for i, rid in enumerate(region_ids)}
    m = len(region_ids)
    pre = [[0] * m for _ in range(m)]
    for c in range(d.n):
        r1, r2, e = _corners(d, coloring, color, c)
        i, j = index[r1], index[r2]
        if i == j:
            continue
        pre[i][j] -= e
        pre[j][i] -= e
    for i in range(m):
        pre[i][i] = -sum(pre[i][j] for j in range(m) if j != i)
    return SymmetricIntForm.from_rows(
        [row[1:] for row in pre[1:]]
    )


def _chessboard_connected(d: Diagram, coloring: Coloring, color: Color) -> bool:
    sets = _DisjointSets(len(coloring.regions))
    for c in range(d.n):
        r1, r2, _ = _corners(d, coloring, color, c)
        sets.union(r1, r2)
    return len({sets.find(r.id) for r in coloring.regions_of(color)}) == 1


def beta1_chessboard(d: Diagram, coloring: Coloring, color: Color) -> int:
    """First Betti number of the chessboard surface of the given color."""
    if not _chessboard_connected(d, coloring, color):
        raise DisconnectedChessboard(f"{color.value} chessboard is not connected")
    return d.n - coloring.count(color) + 1


def _surfaces(d: Diagram, why: str) -> tuple[
        Coloring, dict[Color, SymmetricIntForm], dict[Color, Definiteness], int, int]:
    """The chessboard facts shared by the summaries and the identity checks.

    Returns ``(coloring, forms, defs, s_b, s_w)``: ``forms[color]`` is the
    form of the ``color`` chessboard surface (built from the opposite
    color's regions), ``defs[color]`` its definiteness, and the slopes
    come from one pass over the crossing signs.  Raises NotAlternating
    with the message ``why``.
    """
    if not is_alternating(d):
        raise NotAlternating(why)
    coloring = color_chessboard(d)
    forms = {color: goeritz_matrix(d, coloring, color.opposite())
             for color in (Color.BLACK, Color.WHITE)}
    defs = {color: definiteness(f) for color, f in forms.items()}
    signs = crossing_signs(d).values()
    s_b = 2 * sum(1 for s in signs if s > 0)
    s_w = -2 * sum(1 for s in signs if s < 0)
    return coloring, forms, defs, s_b, s_w


@dataclass(frozen=True)
class ChessboardSummary:
    """One chessboard surface with its form, relabeled by sign.

    ``color`` is the sign-based name: Black is the positive-definite
    chessboard, White the negative-definite one (for reduced alternating
    diagrams exactly one labeling works).  ``anchor_color`` records which
    raw coloring class the surface came from.
    """

    color: Color
    anchor_color: Color
    beta1: int
    form: SymmetricIntForm
    definiteness: Definiteness
    slope: int


def chessboard_summaries(d: Diagram) -> tuple[ChessboardSummary, ChessboardSummary]:
    """Summaries ``(B, W)`` with B the positive-definite chessboard.

    Requires a connected alternating diagram whose two forms are definite
    of opposite signs.
    """
    coloring, forms, defs, s_b, s_w = _surfaces(
        d, "chessboard summaries need an alternating diagram")
    by_def = {v: k for k, v in defs.items()}
    if set(defs.values()) != {Definiteness.POSITIVE, Definiteness.NEGATIVE}:
        raise PreconditionFailed(
            "definite_dichotomy",
            f"chessboard forms are {defs[Color.BLACK].value}/{defs[Color.WHITE].value}, "
            "expected one positive and one negative",
        )

    def summary(label: Color, anchor: Color, slope: int) -> ChessboardSummary:
        return ChessboardSummary(
            color=label,
            anchor_color=anchor,
            beta1=beta1_chessboard(d, coloring, anchor),
            form=forms[anchor],
            definiteness=defs[anchor],
            slope=slope,
        )

    return (summary(Color.BLACK, by_def[Definiteness.POSITIVE], s_b),
            summary(Color.WHITE, by_def[Definiteness.NEGATIVE], s_w))


def slopes(d: Diagram) -> tuple[int, int]:
    """Chessboard slopes ``(s_B, s_W)`` from the crossing signs.

    ``s_B = 2 * (#positive crossings)`` and ``s_W = -2 * (#negative)``,
    with B the positive-definite chessboard.  Every crossing is positive
    or negative, so ``(s_B - s_W) / 2 == n`` and ``(s_B + s_W) / 2`` is
    the writhe.
    """
    b, w = chessboard_summaries(d)
    return b.slope, w.slope


# --------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# Coordinate bound of the unit self-pairing search.
_UNIT_SEARCH_BOUND = 2


def _has_unit_self_pairing(f: SymmetricIntForm) -> bool:
    """Bounded search for an integer vector with self-pairing +-1.

    Conclusive positives only; vectors range over
    ``[-_UNIT_SEARCH_BOUND, _UNIT_SEARCH_BOUND]^dim``.
    """
    bound = _UNIT_SEARCH_BOUND
    if f.dim == 0:
        return False
    if any(abs(f.entries[i][i]) == 1 for i in range(f.dim)):
        return True
    vec = [-bound] * f.dim

    def step() -> bool:
        for i in range(f.dim):
            if vec[i] < bound:
                vec[i] += 1
                for j in range(i):
                    vec[j] = -bound
                return True
        return False

    while True:
        if any(vec) and abs(f.evaluate(tuple(vec))) == 1:
            return True
        if not step():
            return False


def check_identities(d: Diagram) -> ValidationReport:
    """Validate the slope, definiteness, and reducedness identities.

    Failures are reported, not raised.  Checks: (a) the two chessboard
    forms are definite of opposite signs; (b) the slope difference equals
    twice the sum of the Betti numbers; (c) for reduced diagrams the slope
    difference equals twice the crossing count; (d) the diagram is reduced
    and neither form represents +-1 (bounded search); (e) both forms have
    the same determinant up to sign.
    """
    coloring, forms, defs, s_b, s_w = _surfaces(
        d, "identity checks are stated for alternating diagrams")
    def_black, def_white = defs[Color.BLACK], defs[Color.WHITE]
    checks: list[CheckResult] = []

    dichotomy = {def_black, def_white} == {
        Definiteness.POSITIVE,
        Definiteness.NEGATIVE,
    }
    checks.append(CheckResult(
        "definite_dichotomy",
        dichotomy,
        f"anchor-black surface {def_black.value}, anchor-white surface {def_white.value}",
    ))

    try:
        beta_sum = (beta1_chessboard(d, coloring, Color.BLACK)
                    + beta1_chessboard(d, coloring, Color.WHITE))
        beta_ok = s_b - s_w == 2 * beta_sum
        beta_detail = f"s_B - s_W = {s_b - s_w}, 2(beta1+beta1) = {2 * beta_sum}"
    except DisconnectedChessboard as exc:
        beta_ok, beta_detail = False, str(exc)
    checks.append(CheckResult("slope_betti_sum", beta_ok, beta_detail))

    reduced = is_reduced(d)
    if reduced:
        checks.append(CheckResult(
            "slope_crossing_count",
            s_b - s_w == 2 * d.n,
            f"s_B - s_W = {s_b - s_w}, 2n = {2 * d.n}",
        ))
    else:
        checks.append(CheckResult(
            "slope_crossing_count", True, "not applicable: diagram not reduced"))

    unit = any(_has_unit_self_pairing(f) for f in forms.values())
    checks.append(CheckResult(
        "reduced_no_unit_self_pairing",
        reduced and not unit,
        f"reduced={reduced}, unit self-pairing found={unit} (bounded search "
        f"over entries in [-{_UNIT_SEARCH_BOUND}, {_UNIT_SEARCH_BOUND}])",
    ))

    det_b = forms[Color.BLACK].determinant()
    det_w = forms[Color.WHITE].determinant()
    checks.append(CheckResult(
        "determinants_agree",
        abs(det_b) == abs(det_w),
        f"|det| = {abs(det_b)} vs {abs(det_w)}",
    ))
    return ValidationReport(tuple(checks))


def link_determinant(d: Diagram) -> int:
    """The link determinant, as the absolute Goeritz determinant."""
    coloring = color_chessboard(d)
    return abs(goeritz_matrix(d, coloring, Color.BLACK).determinant())
