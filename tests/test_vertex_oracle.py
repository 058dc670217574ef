"""An independent oracle for cross-ratio multiplicities of one vertex.

A resolution of a vertex with 3 + r slots is a trivalent tree on those
slots, its r internal edges of positive length.  A cross-ratio (ab|cd)
of large length λ asks that the edges separating {a, b} from {c, d}
sum to λ: one linear row per cross-ratio.  For random positive λ the
multiplicity is the sum of |det| over the trees whose system has a
solution with every length positive (Goldner, *Counting tropical
rational curves with cross-ratio constraints*, Math. Z. 2021).

The trees come from leaf insertion and the systems are solved exactly
over ``Fraction``; nothing here goes through ``crosskont.resolution``'s
recursion, which only the assertions call.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from crosskont import VertexProfile, cross_ratio_multiplicity

from test_resolution import all_trivalent_trees


@functools.lru_cache(maxsize=None)
def _trees(n: int) -> list[list[frozenset]]:
    """Every trivalent tree on the leaves 0..n-1, as its internal edges' splits."""
    return [list(tree) for tree in all_trivalent_trees(range(n))]


def _solve(rows: list[list[int]], rhs: list[int]) -> tuple[Fraction, list[Fraction]] | None:
    """(det, solution) of the square system, or None when it is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(n):
            if i != col and m[i][col]:
                factor = m[i][col] / m[col][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return det, [m[i][n] / m[i][i] for i in range(n)]


def oracle_count(n: int, pairings: list[tuple[set, set]], rng: random.Random) -> int:
    """Sum of |det| over the trees on 0..n-1 whose lengths solve the cross-ratio rows positively."""
    lam = [rng.randint(1, 10**9) for _ in pairings]
    total = Fraction(0)
    for splits in _trees(n):
        rows = [
            [int(first <= side and not second & side or second <= side and not first & side)
             for side in splits]
            for first, second in pairings
        ]
        solved = _solve(rows, lam)
        if solved is None:
            continue
        det, lengths = solved
        assert all(lengths), "a length came out 0: redraw λ"
        if all(x > 0 for x in lengths):
            total += abs(det)
    assert total.denominator == 1
    return int(total)


def _check(n: int, crs: list[tuple[int, ...]], rng: random.Random) -> int:
    """Compare the oracle, under a random pairing per cross-ratio, with the package's count."""
    pairings = []
    for cr in crs:
        a, b, c, d = rng.sample(cr, 4)
        pairings.append(({a, b}, {c, d}))
    expected = oracle_count(n, pairings, rng)
    assert cross_ratio_multiplicity(VertexProfile.of(range(n), crs)) == expected, crs
    return expected


def test_oracle_matches_on_every_criterion_6_profile():
    rng = random.Random(6)
    profiles = nonzero = 0
    for r in range(4):
        quads = list(itertools.combinations(range(3 + r), 4))
        for crs in itertools.combinations_with_replacement(quads, r):
            nonzero += _check(3 + r, list(crs), rng) > 0
            profiles += 1
    assert profiles == 697
    assert nonzero == 407


def test_oracle_matches_on_a_seeded_r4_sample():
    rng = random.Random(4)
    quads = list(itertools.combinations(range(7), 4))
    counts = [_check(7, rng.sample(quads, 4), rng) for _ in range(40)]
    assert sum(c > 0 for c in counts) >= 30, counts
    assert max(counts) > 1, counts
