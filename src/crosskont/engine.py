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
from typing import Generator, Iterator, Mapping, Optional, Sequence

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
    Split,
    build_subinstances,
    enumerate_splits,
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


def _star_scale(points: int, line_weights: Sequence[int], free: int, crossratios: int) -> int:
    """Weight factor of a degree-zero star, 0 unless it is rigid.

    The vertex is rigid in exactly two shapes: pinned to the
    intersection of two multi lines with l + 1 free ends, scaled by the
    product of the line weights, or to one point with l + 2 free ends.
    Any other shape leaves the vertex loose or over-determined.
    """
    if not points and len(line_weights) == 2 and free == crossratios + 1:
        return line_weights[0] * line_weights[1]
    if points == 1 and not line_weights and free == crossratios + 2:
        return 1
    return 0


def base_from_rows(degree: int, rows: Mapping[Row, int]) -> Count:
    """Count for a valid instance without cross-ratios, from its row counts.

    For positive degree the points pin down ``kontsevich(d)`` curves,
    each multi line contributes its weight times d intersection points,
    and any free end makes the count vanish (the points are then in
    excess).  A degree-zero map contracts to a single vertex, which
    counts 1 in the rigid shapes of :func:`base_degree_zero`, times the
    line weights, and 0 otherwise.
    """
    points = free = 0
    weights = []
    for (rank, weight, _), n in rows.items():
        if rank == KIND_RANK[POINT]:
            points += n
        elif rank == KIND_RANK[FREE]:
            free += n
        else:
            weights += [weight] * n
    if degree == 0:
        return _star_scale(points, weights, free, 0)
    if free:
        return 0
    return kontsevich(degree) * math.prod(weight * degree for weight in weights)


def base_no_crossratios(inst: Instance) -> Count:
    """Count for a valid instance without cross-ratios: :func:`base_from_rows` of its rows."""
    return base_from_rows(inst.degree, label_rows(inst))


def base_degree_zero(inst: Instance) -> Count:
    """Count for a valid degree-zero instance with l >= 0 cross-ratios.

    Such curves are stars: one vertex carrying every contracted end.
    A rigid star (see :func:`_star_scale`) counts its cross-ratio
    multiplicity (one for l = 0), weighted by the product of the line
    weights when it sits on two multi lines.
    """
    weights = [inst.condition(label).weight for label in inst.lines]
    scale = _star_scale(len(inst.points), weights, len(inst.free), len(inst.crossratios))
    if not scale:
        return 0
    return scale * cross_ratio_multiplicity(VertexProfile.of(inst.labels, inst.crossratios))


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


def _isolates(inst: Instance, split: Split, line_pairs: tuple[tuple[int, int], ...]) -> bool:
    """Whether the split puts one of the line pairs alone on a fixed degree-zero side."""
    side = split.side1 if split.kind == TWO_ZERO_SIDE1_FIXED else split.side2
    if split.kind == ONE_ONE or side.degree:
        return False
    return tuple(x for x in sorted(side.labels) if inst.condition(x).kind == LINE) in line_pairs


class Engine:
    """Memoized single-threaded evaluator for counting instances.

    The memo is keyed on :func:`canonical_key`, so relabelled repeats
    of the same sub-instance are computed once.  A split node resolves
    the first of :func:`resolution_choices` and sums over its split
    orbits (:func:`orbit_rows`, from block counts).  A side is looked up
    by its degree and exact rows, which fix it up to relabelling, and
    only rows met first pay for :func:`rows_key`, the built side's key;
    without cross-ratios it is valued in place, else built on a memo
    miss.  ``max_nodes`` counts distinct classes, not row sets.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self._memo: dict[bytes, Count] = {}
        self._exact: dict[tuple, Count] = {}
        self._nodes = 0
        self._terms = 0

    def evaluate(self, inst: Instance, choice: Choice | None = None) -> Count:
        """Count the curves of ``inst``.

        ``choice``, one of :func:`resolution_choices`, overrides the
        resolution at the root, whose value then bypasses the memo.
        """
        _check(inst)  # sub-instances of a valid instance are valid by construction
        return self._eval(inst, choice)

    def trace(self, inst: Instance) -> Iterator[str]:
        """Count ``inst``, then yield its trace over label-level splits line by line.

        Values come from the memo.  Classes it held before the call show as
        memo hits; any other class is expanded where the walk first meets it.
        """
        seen = set(self._memo)
        self.evaluate(inst)
        yield from self._walk(inst, seen, "", "")

    def _eval(self, inst: Instance, choice: Choice | None = None) -> Count:
        key = canonical_key(inst) if choice is None else None
        if key is not None and key in self._memo:
            return self._memo[key]
        return self._node(inst, key, choice)

    def _count_node(self) -> None:
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise ResourceLimitError(
                f"more than {self.max_nodes} recursion nodes after {self._terms} split terms"
            )

    def _node(self, inst: Instance, key: bytes | None, choice: Choice | None = None) -> Count:
        """Evaluate an instance the memo lacks and store it under ``key``."""
        self._count_node()
        if not inst.crossratios:
            value = base_no_crossratios(inst)
        elif inst.degree == 0:
            value = base_degree_zero(inst)
        else:
            if choice is None:
                choice = next(resolution_choices(inst), None)
            value = 0 if choice is None else self._orbit_sum(inst, choice)
        if key is not None:
            self._memo[key] = value
        return value

    def _walk(
        self, inst: Instance, seen: set[bytes], head: str, pad: str
    ) -> Generator[str, None, Count]:
        """Yield one instance's trace lines, the first after ``head``, and return its value.

        A labelling can resolve differently from the class's evaluated
        representative and so reach a class the memo lacks; that class
        is evaluated here.
        """
        yield head + _describe(inst, f"d={inst.degree}", inst.labels, range(len(inst.crossratios)))
        key = canonical_key(inst)
        value = self._memo[key] if key in self._memo else self._node(inst, key)
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
        for split in enumerate_splits(inst, last, pairing):
            if line_pairs is None or _isolates(inst, split, line_pairs):
                s1, s2 = (
                    _describe(inst, f"d={side.degree}:", side.labels, side.crossratios)
                    for side in (split.side1, split.side2)
                )
                yield f"{pad}  split [{split.kind}] ({s1} | {s2})"
                pair = build_subinstances(inst, split)
                left = yield from self._walk(pair.side1, seen, f"{pad}    side 1: ", pad + "    ")
                right = yield from self._walk(pair.side2, seen, f"{pad}    side 2: ", pad + "    ")
                yield f"{pad}  term {left} * {right} = {left * right}"
        yield f"{pad}  = {value}"
        return value

    def _orbit_sum(self, inst: Instance, choice: Choice) -> Count:
        last, pairing, line_pairs = choice
        value = 0
        for orbit in orbit_rows(inst, last, pairing):
            if line_pairs is None or _isolates(inst, orbit.split(), line_pairs):
                value += orbit.weight * self._side(inst, orbit, 0) * self._side(inst, orbit, 1)
                self._terms += 1
        return value

    def _side(self, inst: Instance, orbit: Orbit, i: int) -> Count:
        """Value of side ``i`` (0 or 1) of an orbit: from a memo, in place, or built on a miss."""
        degree, rows = orbit.degrees[i], orbit.rows[i]
        exact = degree, frozenset(rows.items())
        if exact in self._exact:
            return self._exact[exact]
        key = rows_key(degree, rows)
        if key in self._memo:
            value = self._memo[key]
        elif not orbit.crossratios[i]:
            self._count_node()
            value = self._memo[key] = base_from_rows(degree, rows)
        else:
            pair = build_subinstances(inst, orbit.split())
            value = self._node((pair.side1, pair.side2)[i], key)
        self._exact[exact] = value
        return value


def _check(inst: Instance) -> None:
    check = validate(inst)
    if not check:
        raise ValidationError(check.reason)


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
            got = Engine(max_nodes=max_nodes).evaluate(inst, choice)
            variants.append(BatteryVariant(choice[0], choice[1], got))
    return BatteryReport(inst, value, tuple(variants))
