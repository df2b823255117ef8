"""Surface operations at the level of symmetric integer forms.

Boundary-connect sum is a block sum, adding half twists along an arc bumps
a diagonal entry, and cutting along arcs restricts to a principal
submatrix.
"""

from __future__ import annotations

from .goeritz import SymmetricIntForm


class IndexOutOfRange(Exception):
    pass


def block_sum(f: SymmetricIntForm, g: SymmetricIntForm) -> SymmetricIntForm:
    """Block-diagonal sum of the two forms."""
    n, m = f.dim, g.dim
    rows = [
        [f.entries[i][j] if j < n else 0 for j in range(n + m)]
        for i in range(n)
    ] + [
        [0 if j < n else g.entries[i][j - n] for j in range(n + m)]
        for i in range(m)
    ]
    return SymmetricIntForm.from_rows(rows)


def add_twists(f: SymmetricIntForm, index: int, m: int) -> SymmetricIntForm:
    """Increase a diagonal entry by ``m``, modeling ``m`` half twists along
    an arc dual to that basis vector."""
    if not 0 <= index < f.dim:
        raise IndexOutOfRange(f"index {index} outside 0..{f.dim - 1}")
    if m == 0:
        raise ValueError("twist count must be nonzero")
    rows = [list(row) for row in f.entries]
    rows[index][index] += m
    return SymmetricIntForm.from_rows(rows)


def restrict(f: SymmetricIntForm, keep) -> SymmetricIntForm:
    """Principal submatrix on the kept indices (sorted)."""
    idx = sorted(set(keep))
    if any(not 0 <= i < f.dim for i in idx):
        raise IndexOutOfRange(f"keep set {idx} outside 0..{f.dim - 1}")
    return SymmetricIntForm.from_rows(
        [[f.entries[i][j] for j in idx] for i in idx]
    )
