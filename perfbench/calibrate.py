"""How fast the machine runs interpreter-bound code, measured next to each command.

On a shared host the speed of one core moves by a third or more within
minutes, with no steal time to show for it; other guests sharing its caches
and memory bandwidth are the likely cause.  Such drift moves every timing of
a run together, so the benchmark times a fixed kernel right before and right
after each command and scales the command's time by how much slower or
faster than ``REFERENCE_S`` the kernel ran around it.  The scaled times read
as milliseconds on a machine that runs the kernel in ``REFERENCE_S``, which
is about the kernel's median time on a 2-vCPU Xeon (Sapphire Rapids) guest;
raw times are printed beside them.

The kernel does the kind of work taitkit does, with none of its code, so a
change to ``src/`` never moves it: a minimal rooted code over every dart of
a fixed random 4-valent map (list indexing, dict lookups, tuple building and
comparison, like ``orbit.canonical_code``) and fraction-free elimination of
a fixed integer matrix (like ``SymmetricIntForm.determinant``).
"""

from __future__ import annotations

import random
import time

# the kernel's median time on a 2-vCPU Sapphire Rapids guest, Python 3.11
REFERENCE_S = 0.035

_rng = random.Random(20080649)
_CROSSINGS = 24
_DARTS = 4 * _CROSSINGS
_shuffled = list(range(_DARTS))
_rng.shuffle(_shuffled)
PARTNER = [0] * _DARTS
for _i in range(0, _DARTS, 2):
    _a, _b = _shuffled[_i], _shuffled[_i + 1]
    PARTNER[_a], PARTNER[_b] = _b, _a
MATRIX = [[_rng.randint(-6, 6) for _ in range(12)] for _ in range(12)]


def rooted_code(root: int) -> tuple[int, ...]:
    """Breadth-first code of the map from ``root``: for each dart reached,
    the labels of the far ends of the four darts at its vertex."""
    label: dict[int, int] = {}
    order = [root]
    code = []
    k = 0
    while k < len(order):
        dart = order[k]
        k += 1
        if dart in label:
            continue
        label[dart] = len(label)
        base = dart & ~3
        for step in range(4):
            far = PARTNER[base | ((dart + step) & 3)]
            code.append(label.get(far, -1))
            if far not in label:
                order.append(far)
    return tuple(code)


def bareiss(rows: list[list[int]]) -> int:
    m = [list(row) for row in rows]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def kernel() -> int:
    result = 0
    for _ in range(3):
        best = min(rooted_code(root) for root in range(_DARTS))
        result ^= len(best)
        for _ in range(4):
            result ^= bareiss(MATRIX) & 0xFFFF
    return result


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, as seconds
    on the reference machine."""
    return seconds * REFERENCE_S / kernel_s
