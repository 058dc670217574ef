"""Recursive evaluation of counting instances.

The count attached to an instance satisfies a Kontsevich style
recursion: resolving the pairing of one cross-ratio writes the count as
a sum, over all contributing splits, of products of the two sides'
counts.  With at least one point condition any cross-ratio and any of
its three pairings may be resolved; without points the resolved
cross-ratio must contain an admissible pair of multi line entries,
isolated on a degree-zero side (see :func:`admissible_line_pair`).
:func:`resolution_choices` lists which choices are checked to agree and
one that still disagrees.

Recursion anchors: instances without cross-ratios reduce to the plane
Kontsevich numbers via line factors, and degree-zero instances reduce
to a single vertex whose cross-ratio multiplicity is counted directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Mapping, Optional, Sequence

from .conditions import (
    FREE,
    KIND_RANK,
    LINE,
    POINT,
    Count,
    Instance,
    Pairing,
    Row,
    all_pairings,
    canonical_key,
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

# (resolved cross-ratio index, pairing, line pairs to isolate on a degree-zero side or None)
Choice = tuple[int, Pairing, Optional[tuple[tuple[int, int], ...]]]


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
    """Whether the base rule values a class 0 from its counts alone.

    ``kinds`` counts its points, multi lines and free ends, indexed by
    :data:`KIND_RANK`, and ``crossratios`` its cross-ratios.  Of
    positive degree, a class with a free end and no cross-ratio counts
    0: its points are in excess.  Of degree zero, a star counts 0 unless
    it is rigid: pinned to the intersection of two multi lines with
    l + 1 free ends, or to one point with l + 2 free ends, for l
    cross-ratios.  Any other shape leaves the vertex loose or
    over-determined.
    """
    if degree:
        return kinds[KIND_RANK[FREE]] > 0 and not crossratios
    return kinds not in ((0, 2, crossratios + 1), (1, 0, crossratios + 2))


def _star_scale(points: int, line_weights: Sequence[int], free: int, crossratios: int) -> int:
    """Weight factor of a degree-zero star: its line weights' product if it is rigid, else 0."""
    if _vanishes(0, (points, len(line_weights), free), crossratios):
        return 0
    return math.prod(line_weights)


def base_from_rows(degree: int, rows: Mapping[Row, int]) -> Count:
    """Count for a valid class without cross-ratios or of degree zero, from its row counts.

    It is 0 where :func:`_vanishes` says so.  Otherwise, for positive
    degree the points pin down ``kontsevich(d)`` curves and each multi
    line contributes its weight times d intersection points.  A
    degree-zero map is a star, one vertex with one slot per label:
    :func:`_star_scale` times its cross-ratio multiplicity.
    """
    kinds = [0, 0, 0]
    weights = []
    for (rank, weight, _), n in rows.items():
        kinds[rank] += n
        if rank == KIND_RANK[LINE]:
            weights += [weight] * n
    width = len(next(iter(rows))[2])  # membership vectors span the cross-ratios
    if degree:
        if _vanishes(degree, tuple(kinds), width):
            return 0
        return kontsevich(degree) * math.prod(weight * degree for weight in weights)
    points, _, free = kinds
    scale = _star_scale(points, weights, free, width)
    if not scale or not width:
        return scale
    slots = [vec for (_, _, vec), n in rows.items() for _ in range(n)]  # one per label
    crossratios = [[s for s, vec in enumerate(slots) if vec[j]] for j in range(width)]
    return scale * cross_ratio_multiplicity(VertexProfile.of(range(len(slots)), crossratios))


def base_no_crossratios(inst: Instance) -> Count:
    """Count for a valid instance without cross-ratios: :func:`base_from_rows` of its rows."""
    return base_from_rows(inst.degree, label_rows(inst))


def base_degree_zero(inst: Instance) -> Count:
    """Count for a valid degree-zero instance, a star: :func:`base_from_rows` of its rows."""
    return base_from_rows(inst.degree, label_rows(inst))


def admissible_line_pair(inst: Instance, last: int, a: int, b: int) -> bool:
    """Whether grouping the line labels a, b of cross-ratio ``last`` is sound.

    Isolating a and b on a degree-zero side strands any other
    cross-ratio that contains both of them together with two further
    multi line entries: those two are forced to the far side, the
    grouped pair stays behind, and the cross-ratio can no longer be
    satisfied on either.  Such a grouping cannot be the pair of ends
    that pins down a contributing curve, so resolving along it loses
    curves instead of splitting them.  Free entries do not obstruct,
    they may join the degree-zero side.
    """
    for j, cr in enumerate(inst.crossratios):
        if j == last or a not in cr or b not in cr:
            continue
        rest = cr.entries - {a, b}
        if all(inst.condition(x).kind == LINE for x in rest):
            return False
    return True


def resolution_choices(inst: Instance) -> Iterator[Choice]:
    """Every admissible way to resolve a split instance, the default first.

    With point conditions: every cross-ratio, from the last one down,
    under each of its three pairings.  Without points: every cross-ratio,
    from the last one down, under each pairing with an admissible pair of
    multi line entries, with every such pair of it: a split counts when it
    isolates either on a degree-zero side, as a line meets a degenerate
    (12|34) where it passes through L1 ∩ L2 or through L3 ∩ L4.

    Checked to agree: at the root by :func:`evaluate_invariance_battery`
    on the test corpus and on degree 1 with lines and two cross-ratios
    (4 - |cr1 ∩ cr2| curves, as classically); at every node, in reverse
    order, on the golden eval-multi shapes and a d = 7 instance with six
    cross-ratios.  Still disagreeing (``eval --check`` exits 1): d = 1,
    lines 1..5, free 6, [[1,2,3,4],[1,2,3,5],[1,4,5,6]] counts 0 by
    default and 1 under every other choice.
    """
    for last in range(len(inst.crossratios) - 1, -1, -1):
        cr = inst.crossratios[last]
        if inst.points:
            for pairing in all_pairings(cr):
                yield last, pairing, None
            continue
        line_pairs = itertools.combinations([x for x in cr if inst.condition(x).kind == LINE], 2)
        pairs = [p for p in line_pairs if admissible_line_pair(inst, last, *p)]
        for pairing in dict.fromkeys(Pairing.of(p, cr.entries - set(p)) for p in pairs):
            yield last, pairing, tuple(p for p in (pairing.first, pairing.second) if p in pairs)


def _isolates(orbit: Orbit, line_pairs: tuple[tuple[int, int], ...]) -> bool:
    """Whether the orbit leaves a pair of ``line_pairs`` alone on a fixed degree-zero side."""
    i = 0 if orbit.kind == TWO_ZERO_SIDE1_FIXED else 1
    pinned = (orbit.pairing.first, orbit.pairing.second)[i]
    if orbit.kind == ONE_ONE or orbit.degrees[i] or pinned not in line_pairs:
        return False
    return orbit.kinds[i][KIND_RANK[LINE]] == 2


def _zero_side(orbit: Orbit) -> bool:
    """Whether a side of the orbit is a class that :func:`_vanishes`, so its term is 0."""
    degree1, degree2 = orbit.degrees
    (kinds1, kinds2), (crs1, crs2) = orbit.kinds, orbit.crossratios
    return _vanishes(degree1, kinds1, len(crs1)) or _vanishes(degree2, kinds2, len(crs2))


class Engine:
    """Memoized single-threaded evaluator for counting instances.

    The memo is keyed on :func:`canonical_key`, so relabelled repeats
    of the same sub-instance are computed once.  :meth:`_node` values
    every class: by :func:`base_from_rows` if it needs no split, else it
    builds an instance, resolves the first of :func:`resolution_choices`
    and sums over its split orbits (:func:`orbit_rows`, from block
    counts), skipping those with a side that :func:`_vanishes` before
    either side's rows are built.  A side is looked up by its degree and
    exact rows, which fix it up to relabelling; only rows met first pay
    for :func:`rows_key`.  ``max_nodes`` counts the distinct classes
    valued; the trace also values the sides of skipped orbits.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self._memo: dict[bytes, Count] = {}
        self._exact: dict[tuple, bytes] = {}
        self._nodes = 0
        self._terms = 0

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
        key = canonical_key(inst)
        if key in self._memo:
            return self._memo[key]
        return self._node(key, inst.degree, label_rows(inst), lambda: inst)

    def _node(
        self, key: bytes, degree: int, rows: Mapping[Row, int], build: Callable[[], Instance]
    ) -> Count:
        """Value the class ``key`` of ``degree`` and ``rows`` into the memo.

        ``build()`` makes an instance of the class; it is called only for
        a class that splits, with cross-ratios and positive degree.
        """
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise ResourceLimitError(
                f"more than {self.max_nodes} recursion nodes after {self._terms} split terms"
            )
        if degree == 0 or not next(iter(rows))[2]:  # membership vectors span the cross-ratios
            value = base_from_rows(degree, rows)
        else:
            inst = build()
            choice = next(resolution_choices(inst), None)
            value = 0 if choice is None else self._orbit_sum(inst, choice)
        self._memo[key] = value
        return value

    def _walk(
        self, inst: Instance, key: bytes, seen: set[bytes], head: str, pad: str
    ) -> Generator[str, None, Count]:
        """Yield the trace of ``inst``, of class ``key``, after ``head``; return its value.

        Splits come from :func:`orbit_members`, side classes from :meth:`_side`,
        which also evaluates any the memo lacks, from the orbit's first member.
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
        last, pairing, line_pairs = choice
        (a, b), (c, d) = pairing.first, pairing.second
        yield f"{pad}  resolve cr ({a} {b} | {c} {d})"
        nest = [(f"{pad}    side {i}: ", pad + "    ") for i in (1, 2)]  # each side's head and pad
        for split, orbit in orbit_members(inst, last, pairing):
            if line_pairs is None or _isolates(orbit, line_pairs):
                s1, s2 = (
                    _describe(inst, f"d={side.degree}:", side.labels, side.crossratios)
                    for side in (split.side1, split.side2)
                )
                yield f"{pad}  split [{split.kind}] ({s1} | {s2})"
                sub = build_subinstances(inst, split)
                left = yield from self._walk(sub.side1, self._side(inst, orbit, 0), seen, *nest[0])
                right = yield from self._walk(sub.side2, self._side(inst, orbit, 1), seen, *nest[1])
                yield f"{pad}  term {left} * {right} = {left * right}"
        yield f"{pad}  = {value}"
        return value

    def _orbit_sum(self, inst: Instance, choice: Choice) -> Count:
        """Sum the orbit terms of ``inst`` under ``choice``, counting them in ``_terms``.

        An orbit with a side that :func:`_vanishes` is skipped before its rows are built.
        """
        last, pairing, line_pairs = choice
        value = 0
        for orbit in orbit_rows(inst, last, pairing):
            if _zero_side(orbit):
                continue
            if line_pairs is None or _isolates(orbit, line_pairs):
                key1, key2 = self._side(inst, orbit, 0), self._side(inst, orbit, 1)
                value += orbit.weight * self._memo[key1] * self._memo[key2]
                self._terms += 1
        return value

    def _side(self, inst: Instance, orbit: Orbit, i: int) -> bytes:
        """Class key of side ``i`` (0 or 1) of an orbit, valued into the memo on a miss."""
        degree, rows = orbit.degrees[i], orbit.rows[i]
        exact = degree, frozenset(rows.items())
        if exact in self._exact:
            return self._exact[exact]
        key = rows_key(degree, rows)
        if key not in self._memo:
            build = lambda: getattr(build_subinstances(inst, orbit.split()), f"side{i + 1}")
            self._node(key, degree, rows, build)
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
        for choice in resolution_choices(inst):
            engine = Engine(max_nodes=max_nodes)
            engine._nodes = 1  # the root, valued under ``choice`` outside the memo
            variants.append(BatteryVariant(choice[0], choice[1], engine._orbit_sum(inst, choice)))
    return BatteryReport(inst, value, tuple(variants))
