"""Recursive evaluation of counting instances.

The count attached to an instance satisfies a Kontsevich style
recursion: resolving the pairing of one cross-ratio writes the count as
a sum, over all contributing splits, of products of the two sides'
counts.  With at least one point condition any cross-ratio and any of
its three pairings may be resolved; without points the resolved
cross-ratio must contain an admissible pair of multi line entries,
which then sits alone on a degree-zero side (see
:func:`admissible_line_pair`).  All sound choices leave the value
unchanged, which :func:`evaluate_invariance_battery` exercises
explicitly.

Recursion anchors: instances without cross-ratios reduce to the plane
Kontsevich numbers via line factors, and degree-zero instances reduce
to a single vertex whose cross-ratio multiplicity is counted directly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .conditions import (
    Count,
    Instance,
    LINE,
    Pairing,
    all_pairings,
    canonical_key,
    validate,
)
from .resolution import VertexProfile, cross_ratio_multiplicity
from .splits import (
    Split,
    TWO_ZERO_SIDE1_FIXED,
    TWO_ZERO_SIDE2_FIXED,
    build_subinstances,
    enumerate_splits,
    split_orbits,
)

DEFAULT_MAX_NODES = 1_000_000

# (resolved cross-ratio index, pairing, line pair isolated on a degree-zero side or None)
Choice = tuple[int, Pairing, Optional[tuple[int, int]]]


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


def base_no_crossratios(inst: Instance) -> Count:
    """Count for a valid instance without cross-ratios.

    For positive degree the points pin down ``kontsevich(d)`` curves,
    each multi line contributes its weight times d intersection points,
    and any free end makes the count vanish (the points are then in
    excess).  A degree-zero map contracts to a single vertex, counted
    by :func:`base_degree_zero` with no cross-ratios.
    """
    if inst.degree == 0:
        return base_degree_zero(inst)
    if inst.free:
        return 0
    product = kontsevich(inst.degree)
    for label in inst.lines:
        product *= inst.condition(label).weight * inst.degree
    return product


def base_degree_zero(inst: Instance) -> Count:
    """Count for a valid degree-zero instance with l >= 0 cross-ratios.

    Such curves are stars: one vertex carrying every contracted end.
    The vertex is rigid in exactly two shapes, pinned to the
    intersection of two multi lines with l + 1 free ends or to one
    point with l + 2 free ends, and each then counts its cross-ratio
    multiplicity (one for l = 0), weighted by the product of the line
    weights in the first shape.  Any other shape leaves the vertex
    loose or over-determined.
    """
    lines = inst.lines
    l = len(inst.crossratios)
    if not inst.points and len(lines) == 2 and len(inst.free) == l + 1:
        scale = inst.condition(lines[0]).weight * inst.condition(lines[1]).weight
    elif len(inst.points) == 1 and not lines and len(inst.free) == l + 2:
        scale = 1
    else:
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
    from the last one down, grouped along each admissible pair of its
    multi line entries, which then sits alone on a degree-zero side.
    """
    for last in range(len(inst.crossratios) - 1, -1, -1):
        cr = inst.crossratios[last]
        if inst.points:
            for pairing in all_pairings(cr):
                yield last, pairing, None
            continue
        lines = [x for x in cr if inst.condition(x).kind == LINE]
        for a, b in itertools.combinations(lines, 2):
            if admissible_line_pair(inst, last, a, b):
                yield last, Pairing.of((a, b), cr.entries - {a, b}), (a, b)


def _isolates(inst: Instance, split: Split, line_pair: tuple[int, int]) -> bool:
    """Whether the split puts the line pair alone on a fixed degree-zero side."""
    a, b = line_pair
    side = split.side1 if a in split.side1.labels else split.side2
    fixed = TWO_ZERO_SIDE1_FIXED if side is split.side1 else TWO_ZERO_SIDE2_FIXED
    side_lines = {x for x in side.labels if inst.condition(x).kind == LINE}
    return split.kind == fixed and side.degree == 0 and side_lines == {a, b}


@dataclass(frozen=True)
class TraceTerm:
    """One split's contribution to a recursion node."""

    split: Split
    left: "TraceNode"
    right: "TraceNode"

    @property
    def term(self) -> Count:
        return self.left.value * self.right.value


@dataclass(frozen=True)
class TraceNode:
    """One evaluated instance in the recursion tree.

    For split rules ``value`` equals the sum of the terms; memo hits
    and base cases carry no terms.
    """

    instance: Instance
    rule: str
    value: Count
    last: int | None = None
    pairing: Pairing | None = None
    terms: tuple[TraceTerm, ...] = ()


class Engine:
    """Memoized single-threaded evaluator for counting instances.

    The memo is keyed on :func:`canonical_key`, so relabelled repeats
    of the same sub-instance are computed once.  A split node resolves
    the first of :func:`resolution_choices` and sums over its
    :func:`split_orbits`, or over every label-level split when traced.
    """

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self._memo: dict[bytes, Count] = {}
        self._nodes = 0

    def evaluate(self, inst: Instance, choice: Choice | None = None) -> Count:
        """Count the curves of ``inst``.

        ``choice``, one of :func:`resolution_choices`, overrides the
        resolution at the root, whose value then bypasses the memo.
        """
        _check(inst)
        value, _ = self._eval(inst, False, choice)
        return value

    def evaluate_traced(self, inst: Instance) -> tuple[Count, TraceNode]:
        _check(inst)
        value, node = self._eval(inst, True)
        assert node is not None
        return value, node

    def _eval(
        self, inst: Instance, trace: bool, choice: Choice | None = None
    ) -> tuple[Count, Optional[TraceNode]]:
        # Sub-instances of a valid instance are valid by construction.
        key = canonical_key(inst) if choice is None else None
        if key is not None and key in self._memo:
            value = self._memo[key]
            node = TraceNode(inst, "memo", value) if trace else None
            return value, node
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise ResourceLimitError(f"more than {self.max_nodes} recursion nodes")
        node: Optional[TraceNode] = None
        if not inst.crossratios:
            value = base_no_crossratios(inst)
            rule = "base"
        elif inst.degree == 0:
            value = base_degree_zero(inst)
            rule = "star"
        else:
            if choice is None:
                choice = next(resolution_choices(inst), None)
            if choice is None:
                value, rule = 0, "no line pair"
            else:
                value, node = self._split(inst, choice, trace)
                rule = "split"
        if key is not None:
            self._memo[key] = value
        if trace and rule != "split":
            node = TraceNode(inst, rule, value)
        return value, node

    def _split(
        self, inst: Instance, choice: Choice, trace: bool
    ) -> tuple[Count, Optional[TraceNode]]:
        last, pairing, line_pair = choice
        if trace:
            orbits = [(split, 1) for split in enumerate_splits(inst, last, pairing)]
        else:
            orbits = split_orbits(inst, last, pairing)
        if line_pair is not None:
            orbits = [(split, m) for split, m in orbits if _isolates(inst, split, line_pair)]
        value = 0
        terms = []
        for split, m in orbits:
            pair = build_subinstances(inst, split)
            v1, n1 = self._eval(pair.side1, trace)
            v2, n2 = self._eval(pair.side2, trace)
            value += m * v1 * v2
            if trace:
                assert n1 is not None and n2 is not None
                terms.append(TraceTerm(split, n1, n2))
        node = (
            TraceNode(inst, "split", value, last, pairing, tuple(terms)) if trace else None
        )
        return value, node


def _check(inst: Instance) -> None:
    check = validate(inst)
    if not check:
        raise ValidationError(check.reason)


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
