"""Recursive evaluation of counting instances.

The count attached to an instance satisfies a Kontsevich style
recursion: resolving the pairing of one cross-ratio writes the count as
a sum, over all contributing splits, of products of the two sides'
counts.  With at least one point condition any cross-ratio and any of
its three pairings may be resolved; without points the resolved
cross-ratio must contain an admissible pair of multi line entries,
isolated on a degree-zero side (see :func:`_choices`).
:func:`resolution_choices` lists which choices are checked to agree.

Recursion anchors: instances without cross-ratios reduce to the plane
Kontsevich numbers via line factors, and degree-zero instances reduce
to a single vertex whose cross-ratio multiplicity is counted directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Mapping, Optional

from .conditions import (
    FREE,
    KIND_RANK,
    LINE,
    POINT,
    Count,
    Instance,
    Key,
    Pairing,
    Row,
    canonical_key,
    label_row,
    label_rows,
    rows_key,
    validate,
)
from .resolution import VertexProfile, cross_ratio_multiplicity
from .splits import (
    ONE_ONE,
    TWO_ZERO_SIDE1_FIXED,
    Orbit,
    build_subinstances,
    enumerate_splits,  # not called here; perfbench/tracing.py wraps it by this name
    orbit_members,
    orbit_rows,
)

DEFAULT_MAX_NODES = 1_000_000

# (resolved cross-ratio index, its entries' rows with side 1's pair first, pairs kept or None)
Choice = tuple[int, tuple[Row, ...], Optional[tuple[int, ...]]]


class ValidationError(ValueError):
    """The instance handed to the engine is not well posed."""


class ResourceLimitError(RuntimeError):
    """The recursion visited more instances than the configured budget."""


@functools.lru_cache(maxsize=None)
def kontsevich(d: int) -> Count:
    """Number of rational plane curves of degree d through 3d - 1 points.

    Exact integers from the recursion

        N_d = sum over d1 + d2 = d of
              (d1^2 d2^2 C(3d-4, 3d1-2) - d1^3 d2 C(3d-4, 3d1-1)) N_d1 N_d2

    anchored at N_1 = 1.  Smaller degrees are asked for in increasing order,
    each cached before the next needs it, so no call nests more than one level.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d == 1:
        return 1
    n = [0] + [kontsevich(e) for e in range(1, d)]
    m = 3 * d - 4  # comb[k] = C(m, k), one row instead of a binomial per term
    comb = list(itertools.accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1))
    total = 0
    for d1 in range(1, d // 2 + 1):  # (d1, d2) and (d2, d1) share N_d1 N_d2
        coefficient = sum(
            a * a * b * b * comb[3 * a - 2] - a**3 * b * comb[3 * a - 1]
            for a, b in {(d1, d - d1), (d - d1, d1)}
        )
        total += coefficient * n[d1] * n[d - d1]
    return total


def _vanishes(degree: int, kinds: tuple[int, int, int], crossratios: int) -> bool:
    """Whether a class counts 0 from its counts alone: the one statement of the zero rule.

    ``kinds`` counts its points, multi lines and free ends, indexed by
    :data:`KIND_RANK`, and ``crossratios`` its cross-ratios.

    Of positive degree, a well-posed class has exactly as many
    conditions, by codimension, as its curves have dimensions.  Take a
    set F of its free ends and the set C(F) of cross-ratios holding any
    of them.  The other conditions (points, lines and the cross-ratios
    holding no end of F) are pulled back along the forgetful map that
    drops F, whose target has |F| dimensions fewer (Gathmann, Kerber and
    Markwig, Compositio Math. 145 (2009); for cross-ratios, Goldner,
    Math. Z. 297 (2021)).  They fall |C(F)| short of the source's
    dimension, so they are |F| - |C(F)| in excess on the target, and
    when that is positive no curve meets general ones: the class counts
    0 unless every set of free ends lies in at least as many
    cross-ratios, Hall's condition between free ends and cross-ratios.
    From counts alone this reads F = all free ends: more free ends than
    cross-ratios.  :func:`_unheld_end` reads F = {f}, C(F) = ∅ from a
    class's rows: a free end that no cross-ratio holds.
    :func:`_fails_hall` decides it for every F at once from the rows of a
    class with cross-ratios, by matching each free end to a cross-ratio
    of its own.

    Of degree zero, a star counts 0 unless it is rigid: pinned to the
    intersection of two multi lines with l + 1 free ends, or to one
    point with l + 2 free ends, for l cross-ratios.  Any other shape
    leaves the vertex loose or over-determined.  :func:`base_from_rows`
    reads it from a class's rows, :func:`_zero_side` from an orbit
    side's counts.
    """
    if degree:
        return kinds[KIND_RANK[FREE]] > crossratios
    return kinds not in ((0, 2, crossratios + 1), (1, 0, crossratios + 2))


def _unheld_end(degree: int, kinds: tuple[int, int, int], rows: Mapping[Row, int]) -> bool:
    """Whether a class of positive degree has a free end that none of its cross-ratios holds.

    ``kinds`` counts its points, multi lines and free ends, as in
    :func:`_vanishes`.  That end alone fails the rule there, so the class counts 0.
    """
    free = KIND_RANK[FREE]
    return degree > 0 and kinds[free] > 0 and any(r == free and not any(v) for r, _, v in rows)


def _fails_hall(rows: Mapping[Row, int]) -> bool:
    """Whether the free ends of a class with cross-ratios fail the rule of :func:`_vanishes`.

    The rule holds exactly when every free end can be matched to a
    cross-ratio of its own that holds it.  Each end in turn takes an
    unmatched cross-ratio that holds it, if there is one, or else seeks an
    alternating path to one, depth first (Kuhn's algorithm), on an
    explicit stack: ``path`` holds the ends along the path, ``untried``
    each one's cross-ratios not yet tried and ``taken`` the cross-ratio
    each but the last reaches for, held by the next.
    """
    ends = [vec for (rank, _, vec), n in rows.items() if rank == KIND_RANK[FREE] for _ in range(n)]
    if not ends:
        return False
    held = [[j for j, x in enumerate(vec) if x] for vec in ends]
    owner: dict[int, int] = {}  # each matched cross-ratio's free end
    for start, crossratios in enumerate(held):
        j = next((j for j in crossratios if j not in owner), None)
        if j is not None:
            owner[j] = start
            continue
        seen: set[int] = set()
        path, untried, taken = [start], [iter(crossratios)], []
        while path:
            j = next((j for j in untried[-1] if j not in seen), None)
            if j is None:  # this end finds no path: its holder tries its next cross-ratio
                path.pop()
                untried.pop()
                if taken:
                    taken.pop()
            elif j in owner:
                seen.add(j)
                taken.append(j)
                path.append(owner[j])
                untried.append(iter(held[owner[j]]))
            else:
                owner.update(zip(taken + [j], path))
                break
        else:
            return True
    return False


def base_from_rows(degree: int, rows: Mapping[Row, int]) -> Count:
    """Count for a valid class without cross-ratios or of degree zero, from its row counts.

    It is 0 where :func:`_vanishes` says so.  Otherwise, for positive
    degree the points pin down ``kontsevich(d)`` curves and each multi
    line contributes its weight times d intersection points.  A
    degree-zero map is a star, one vertex with one slot per label: its
    line weights' product times its cross-ratio multiplicity.
    """
    kinds = [0, 0, 0]
    weights = []
    for (rank, weight, _), n in rows.items():
        kinds[rank] += n
        if rank == KIND_RANK[LINE]:
            weights += [weight] * n
    width = len(next(iter(rows))[2])  # membership vectors span the cross-ratios
    if _vanishes(degree, tuple(kinds), width):
        return 0
    if degree:
        return kontsevich(degree) * math.prod(weight * degree for weight in weights)
    scale = math.prod(weights)
    if not width:
        return scale
    slots = [vec for (_, _, vec), n in rows.items() for _ in range(n)]  # one per label
    crossratios = [[s for s, vec in enumerate(slots) if vec[j]] for j in range(width)]
    return scale * cross_ratio_multiplicity(VertexProfile.of(range(len(slots)), crossratios))


def base_no_crossratios(inst: Instance) -> Count:
    """Count for a valid instance that :func:`base_from_rows` values, from its label rows."""
    return base_from_rows(inst.degree, label_rows(inst))


base_degree_zero = base_no_crossratios  # perfbench/tracing.py times stars under this second name


def _choices(width: int, column: Callable, row: Callable, points: bool) -> Iterator[tuple]:
    """The resolutions of a class whose cross-ratio j has the entries ``column(j)``.

    Yields (cross-ratio, its entries with side 1's pair first, the kept
    pairs, 0 for side 1's and 1 for side 2's, or None), the default
    first; ``row`` gives an entry's row.  With points: every cross-ratio,
    from the last one down, under each of its three pairings, its
    entries listed only when reached.  Without points: every
    cross-ratio, from the last one down, under each pairing with an
    admissible pair of multi line entries.  It keeps those pairs and
    any pair of one line and one free end: a line meets a degenerate
    (12|34) where it passes through L1 ∩ L2 or L3 ∩ L4, and, for a free
    end 2, where the free point p2 sits on it at L1 (see
    :func:`_isolates`).  A line pair is not admissible when another
    cross-ratio holds it with two more lines: isolating it forces those
    two to the far side, and that cross-ratio can be satisfied on
    neither.  Pairs keep the entries' order, side 1's holding the first.
    The tests check that the choices agree, at the root by
    :func:`evaluate_invariance_battery` and at every node in reverse
    order, on the shapes the README lists.
    """
    line, free = KIND_RANK[LINE], KIND_RANK[FREE]
    # without points, the cross-ratios of lines alone, each of which may bar a line pair it holds
    full = [] if points else [j for j in range(width) if all(row(x)[0] == line for x in column(j))]
    for last in range(width - 1, -1, -1):
        entries = column(last)
        if points:
            for order in (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2):  # its three pairings
                yield last, tuple(entries[i] for i in order), None
            continue
        ranks, _, vecs = zip(*map(row, entries))
        tied = lambda a, b: any(j != last and vecs[a][j] and vecs[b][j] for j in full)
        lines = itertools.combinations([i for i in range(4) if ranks[i] == line], 2)
        pairs = [p for p in lines if not tied(*p)]
        kept = lambda p: p in pairs or {ranks[i] for i in p} == {line, free}
        rest = lambda p: tuple(i for i in range(4) if i not in p)
        for order in dict.fromkeys(p + rest(p) if 0 in p else rest(p) + p for p in pairs):
            picked = tuple(k for k in (0, 1) if kept(order[2 * k : 2 * k + 2]))
            yield last, tuple(entries[i] for i in order), picked


def resolution_choices(inst: Instance) -> Iterator[tuple[Pairing, Choice]]:
    """:func:`_choices` of an instance, on each cross-ratio's entries in label order.

    Each comes with its pairing, as the trace, the battery and ``eval --check`` read it.
    """
    row, crossratios = label_row(inst), inst.crossratios
    listed = _choices(len(crossratios), lambda j: list(crossratios[j]), row, bool(inst.points))
    for last, labels, kept in listed:
        yield Pairing(labels[:2], labels[2:]), (last, tuple(map(row, labels)), kept)


def _row_choices(rows: Mapping[Row, int]) -> Iterator[Choice]:
    """:func:`_choices` of a class from its rows, the default first.

    Each cross-ratio's four entry rows are sorted, when it is reached,
    and listed 1st, 3rd, 2nd, 4th.  With points the default thus pairs
    the 1st with the 3rd and the 2nd with the 4th, so equal rows end up
    on opposite sides: on ``multi(9, 5)`` that sums 28,381 orbit terms,
    against 38,858 by a representative's label order and 64,143 pairing
    the 1st with the 2nd.
    Without points the listing barely matters (831 orbit terms over the
    240 free-end instances of the tests, 810 with the rows sorted).
    """

    def column(j: int) -> tuple[Row, ...]:
        a, b, c, d = sorted(r for r, n in rows.items() if r[2][j] for _ in range(n))
        return a, c, b, d

    points = any(rank == KIND_RANK[POINT] for rank, _, _ in rows)
    return _choices(len(next(iter(rows))[2]), column, lambda row: row, points)


def _isolates(orbit: Orbit, kept: tuple[int, ...]) -> bool:
    """Whether the orbit isolates a ``kept`` pinned pair on a degree-zero side.

    A 2/0 orbit counts when its fixed side has degree 0, holds a kept
    pair and exactly two lines: the curve passes where they meet, L1 ∩ L2
    for a line pair, L ∩ L' for a line L, a free end f and a line L' from
    off the cross-ratio, with f's point there.  A 1/1 orbit counts when
    a side holding a kept pair has degree 0 and is the star {L, f, e}: a
    line, a free end and the fresh line end, the free point sitting on
    the curve's line end where it meets L.
    """
    if orbit.kind == ONE_ONE:
        return any(not orbit.degrees[i] and orbit.kinds[i] == (0, 2, 1) for i in kept)
    i = 0 if orbit.kind == TWO_ZERO_SIDE1_FIXED else 1
    return i in kept and not orbit.degrees[i] and orbit.kinds[i][KIND_RANK[LINE]] == 2


def _zero_side(orbit: Orbit) -> bool:
    """Whether a side of the orbit is a class that :func:`_vanishes`, so its term is 0.

    At positive degree that is a side with more free ends than
    cross-ratios: :meth:`Engine._node` would value it 0, by
    :func:`_fails_hall` or, without cross-ratios, by :func:`base_from_rows`.
    """
    degree1, degree2 = orbit.degrees
    (kinds1, kinds2), (crs1, crs2) = orbit.kinds, orbit.crossratios
    return _vanishes(degree1, kinds1, len(crs1)) or _vanishes(degree2, kinds2, len(crs2))


class Engine:
    """Memoized single-threaded evaluator for counting instances.

    A class, fixed up to relabelling by its degree and row counts, is
    memoized under their :func:`rows_key`.  :meth:`_node` values every
    class from its rows, building no instance below the root: by
    :func:`base_from_rows` if it needs no split, 0 if its free ends
    :func:`_fails_hall`, else as the sum over the split orbits
    (:func:`orbit_rows`) of the first of :func:`_row_choices`.  It skips
    an orbit with a side that :func:`_vanishes` before either side's rows
    are built, and one with a side that has an :func:`_unheld_end` before
    either side is looked up, so such a side is valued only where the
    trace meets it.  :meth:`_key` finds a class,
    root or side, by its degree and exact rows; only rows met first pay
    for :func:`rows_key`.  ``max_nodes`` counts the distinct classes
    valued; the trace also values the sides of skipped orbits.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self._memo: dict[Key, Count] = {}
        self._exact: dict[tuple, Key] = {}
        self._nodes = 0
        self._terms = 0
        self._hall_zeros = 0  # classes valued 0 by :func:`_fails_hall`, without a split

    def evaluate(self, inst: Instance) -> Count:
        """Count the curves of ``inst``."""
        check = validate(inst)  # sub-instances of a valid instance are valid by construction
        if not check:
            raise ValidationError(check.reason)
        return self._eval(inst)

    def trace(self, inst: Instance) -> Iterator[str]:
        """Count ``inst``, then yield its trace over label-level splits line by line.

        Values come from the memo.  Classes it held before the call show as
        memo hits; any other class is expanded where the walk first meets it.
        """
        seen = set(self._memo)
        self.evaluate(inst)
        yield from self._walk(inst, canonical_key(inst), seen, "", "")

    def _eval(self, inst: Instance) -> Count:
        return self._memo[self._key(inst.degree, label_rows(inst))]

    def _node(self, key: Key, degree: int, rows: Mapping[Row, int]) -> Count:
        """Value the class ``key`` of ``degree`` and ``rows`` into the memo."""
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise ResourceLimitError(
                f"more than {self.max_nodes} recursion nodes after {self._terms} split terms"
            )
        if degree == 0 or not next(iter(rows))[2]:  # membership vectors span the cross-ratios
            value = base_from_rows(degree, rows)
        elif _fails_hall(rows):
            self._hall_zeros += 1
            value = 0
        else:
            choice = next(_row_choices(rows), None)
            value = 0 if choice is None else self._orbit_sum(degree, rows, choice)
        self._memo[key] = value
        return value

    def _walk(
        self, inst: Instance, key: Key, seen: set[Key], head: str, pad: str
    ) -> Generator[str, None, Count]:
        """Yield the trace of ``inst``, of class ``key``, after ``head``; return its value.

        Splits come from :func:`orbit_members` under the first of its
        :func:`resolution_choices`, side classes from :meth:`_key`, which
        also evaluates any the memo lacks.
        """
        yield head + _describe(inst, f"d={inst.degree}", inst.labels, range(len(inst.crossratios)))
        value = self._memo[key]
        rules = (("memo", key in seen), ("base", not inst.crossratios), ("star", inst.degree == 0))
        rule = next((name for name, hit in rules if hit), None)
        choice = None if rule else next(resolution_choices(inst), None)
        seen.add(key)
        if choice is None:
            yield f"{pad}  = {value} ({rule or 'no line pair'})"
            return value
        pairing, (last, _, kept) = choice
        (a, b), (c, d) = pairing.first, pairing.second
        yield f"{pad}  resolve cr ({a} {b} | {c} {d})"
        nest = [(f"{pad}    side {i}: ", pad + "    ") for i in (1, 2)]  # each side's head and pad
        built = {}  # each orbit's side rows by its counts, unique among one node's orbits
        for split, orbit in orbit_members(inst, last, pairing):
            if kept is None or _isolates(orbit, kept):
                s1, s2 = (
                    _describe(inst, f"d={side.degree}:", side.labels, side.crossratios)
                    for side in (split.side1, split.side2)
                )
                yield f"{pad}  split [{split.kind}] ({s1} | {s2})"
                sub = build_subinstances(inst, split)
                rows = built[orbit.counts] = built.get(orbit.counts) or orbit.rows
                keys = map(self._key, orbit.degrees, rows)  # side 2's after side 1's walk
                left = yield from self._walk(sub.side1, next(keys), seen, *nest[0])
                right = yield from self._walk(sub.side2, next(keys), seen, *nest[1])
                yield f"{pad}  term {left} * {right} = {left * right}"
        yield f"{pad}  = {value}"
        return value

    def _orbit_sum(self, degree: int, rows: Mapping[Row, int], choice: Choice) -> Count:
        """Sum the orbit terms of a class under ``choice``, counting them in ``_terms``.

        An orbit with a side that :func:`_vanishes` is skipped before its
        rows are built, and one with a side that has an :func:`_unheld_end`
        before either side is looked up.
        """
        last, pinned, kept = choice
        value = 0
        for orbit in orbit_rows(degree, rows, last, pinned):
            if _zero_side(orbit) or not (kept is None or _isolates(orbit, kept)):
                continue
            sides = orbit.rows
            if not any(map(_unheld_end, orbit.degrees, orbit.kinds, sides)):
                key1, key2 = map(self._key, orbit.degrees, sides)
                value += orbit.weight * self._memo[key1] * self._memo[key2]
                self._terms += 1
        return value

    def _key(self, degree: int, rows: Mapping[Row, int]) -> Key:
        """Class key of ``degree`` and ``rows``, valued into the memo on a miss."""
        exact = degree, frozenset(rows.items())
        if exact in self._exact:
            return self._exact[exact]
        key = rows_key(degree, rows)
        if key not in self._memo:
            self._node(key, degree, rows)
        self._exact[exact] = key
        return key


def _describe(inst: Instance, head: str, labels, crossratios) -> str:
    """One trace line's text: ``head``, the marked labels and the cross-ratios by index."""
    marks = {POINT: "p", LINE: "L"}
    parts = [head, *(f"{marks.get(inst.condition(x).kind, 'f')}{x}" for x in sorted(labels))]
    parts.extend("cr{%s}" % ",".join(map(str, inst.crossratios[j])) for j in sorted(crossratios))
    return " ".join(parts)


def evaluate(inst: Instance, *, max_nodes: int = DEFAULT_MAX_NODES) -> Count:
    """Count the curves of a valid instance.

    Raises :class:`ValidationError` for ill posed instances and
    :class:`ResourceLimitError` when the recursion exceeds
    ``max_nodes`` distinct evaluations.
    """
    return Engine(max_nodes=max_nodes).evaluate(inst)


@dataclass(frozen=True)
class BatteryVariant:
    """One alternative root resolution and the value it produced."""

    last: int
    pairing: Pairing
    value: Count


@dataclass(frozen=True)
class BatteryReport:
    """Outcome of an invariance battery run."""

    instance: Instance
    value: Count
    variants: tuple[BatteryVariant, ...]

    @property
    def ok(self) -> bool:
        return all(v.value == self.value for v in self.variants)

    @property
    def mismatches(self) -> tuple[BatteryVariant, ...]:
        return tuple(v for v in self.variants if v.value != self.value)


def evaluate_invariance_battery(
    inst: Instance, *, max_nodes: int = DEFAULT_MAX_NODES
) -> BatteryReport:
    """Evaluate an instance under every admissible root resolution.

    The variants are :func:`resolution_choices` of the instance: with
    point conditions every cross-ratio under all three groupings,
    without points every cross-ratio grouped along each admissible
    pair of its multi line entries.  Each variant runs on a fresh
    engine with the choice applied at the root only, so no memoized
    value crosses variants.  The report's ``ok`` flag says whether
    every variant agreed with the default evaluation.
    """
    value = Engine(max_nodes=max_nodes).evaluate(inst)
    variants: list[BatteryVariant] = []
    if inst.crossratios and inst.degree > 0:
        rows = label_rows(inst)
        for pairing, choice in resolution_choices(inst):
            engine = Engine(max_nodes=max_nodes)
            engine._nodes = 1  # the root, valued under ``choice`` outside the memo
            value_of = engine._orbit_sum(inst.degree, rows, choice)
            variants.append(BatteryVariant(choice[0], pairing, value_of))
    return BatteryReport(inst, value, tuple(variants))
