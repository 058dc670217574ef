"""Data model for counting problems on rational plane tropical curves.

A curve of degree d has d non-contracted ends in each of the directions
(-1, 0), (0, -1) and (1, 1), plus contracted ends.  Every contracted end
carries a label (a positive integer) and one of three conditions: it is
pinned to a point, it lies on a multi line of some positive weight, or
it is free.  A degenerated tropical cross-ratio is a set of four labels.
The counting problem is zero-dimensional exactly when

    3 d - 1 = #points + #crossratios - #free.

Instances are immutable and compare as values, but they are not
hashable: their conditions live in a read-only mapping.
``canonical_key`` produces a relabelling-invariant fingerprint that the
recursion engine uses for memoization.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

Label = int
Count = int

POINT = "point"
LINE = "line"
FREE = "free"

_KINDS = (POINT, LINE, FREE)


@dataclass(frozen=True, slots=True)
class EndCondition:
    """Condition carried by one contracted end.

    ``weight`` is the weight of the multi line and must be 1 for the
    other two kinds.
    """

    kind: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.weight < 1:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.kind != LINE and self.weight != 1:
            raise ValueError(f"{self.kind} conditions carry no weight")

    @classmethod
    def point(cls) -> "EndCondition":
        return cls(POINT)

    @classmethod
    def line(cls, weight: int = 1) -> "EndCondition":
        return cls(LINE, weight)

    @classmethod
    def free(cls) -> "EndCondition":
        return cls(FREE)


@dataclass(frozen=True, slots=True)
class CrossRatio:
    """Degenerated tropical cross-ratio: a set of four end labels."""

    entries: frozenset[Label]

    def __post_init__(self) -> None:
        if len(self.entries) != 4:
            raise ValueError(f"a cross-ratio needs 4 distinct entries, got {sorted(self.entries)}")

    @classmethod
    def of(cls, *labels: Label) -> "CrossRatio":
        return cls(frozenset(labels))

    @property
    def ordered(self) -> tuple[Label, Label, Label, Label]:
        a, b, c, d = sorted(self.entries)
        return a, b, c, d

    def __contains__(self, label: Label) -> bool:
        return label in self.entries

    def __iter__(self) -> Iterator[Label]:
        return iter(sorted(self.entries))


@dataclass(frozen=True, slots=True)
class Pairing:
    """One of the three ways to group a cross-ratio's entries in two pairs.

    Normal form: each pair is sorted and the pair holding the smallest
    entry comes first, so equal groupings compare equal.
    """

    first: tuple[Label, Label]
    second: tuple[Label, Label]

    def __post_init__(self) -> None:
        labels = (*self.first, *self.second)
        if len(set(labels)) != 4:
            raise ValueError(f"pairing entries must be 4 distinct labels, got {labels}")
        if self.first != tuple(sorted(self.first)) or self.second != tuple(sorted(self.second)):
            raise ValueError("pairs must be sorted; use Pairing.of")
        if min(self.second) < min(self.first):
            raise ValueError("pair holding the smallest label must come first; use Pairing.of")

    @classmethod
    def of(cls, first: Iterable[Label], second: Iterable[Label]) -> "Pairing":
        a = tuple(sorted(first))
        b = tuple(sorted(second))
        if min(b) < min(a):
            a, b = b, a
        return cls(a, b)

    @property
    def entries(self) -> frozenset[Label]:
        return frozenset(self.first) | frozenset(self.second)


def all_pairings(cr: CrossRatio) -> tuple[Pairing, Pairing, Pairing]:
    """The three pairings of a cross-ratio, smallest entry always first.

    The first groups the two smallest entries and serves as the default.
    """
    a, b, c, d = cr.ordered
    return (
        Pairing.of((a, b), (c, d)),
        Pairing.of((a, c), (b, d)),
        Pairing.of((a, d), (b, c)),
    )


@dataclass(frozen=True, slots=True)
class Instance:
    """One counting problem: a degree plus labelled conditions.

    ``conditions`` maps each contracted-end label to its condition.  The
    constructor takes any mapping, or iterable of (label, condition)
    pairs, and stores it once as a read-only mapping ordered by label,
    so the label tuples below come out sorted.  Instances compare as
    values and are not hashable.
    """

    degree: int
    conditions: Mapping[Label, EndCondition]
    crossratios: tuple[CrossRatio, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        conditions = dict(sorted(dict(self.conditions).items()))
        if any(label < 1 for label in conditions):
            raise ValueError("labels must be positive integers")
        object.__setattr__(self, "conditions", MappingProxyType(conditions))

    @classmethod
    def build(
        cls,
        degree: int,
        points: Iterable[Label] = (),
        lines: Mapping[Label, int] | Iterable[tuple[Label, int]] = (),
        free: Iterable[Label] = (),
        crossratios: Iterable[CrossRatio | Iterable[Label]] = (),
    ) -> "Instance":
        """Assemble an instance from labels grouped by condition kind.

        ``lines`` maps labels to multi line weights.  Cross-ratios may
        be given as ``CrossRatio`` values or as plain 4-element
        iterables of labels.
        """
        point_labels = list(points)
        line_items = list(lines.items() if isinstance(lines, Mapping) else lines)
        free_labels = list(free)
        conds: dict[Label, EndCondition] = {}
        for label in point_labels:
            conds[label] = EndCondition.point()
        for label, weight in line_items:
            conds[label] = EndCondition.line(weight)
        for label in free_labels:
            conds[label] = EndCondition.free()
        if len(conds) != len(point_labels) + len(line_items) + len(free_labels):
            raise ValueError("a label may carry only one condition")
        crs = tuple(
            cr if isinstance(cr, CrossRatio) else CrossRatio.of(*cr) for cr in crossratios
        )
        return cls(degree, conds, crs)

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(self.conditions)

    @property
    def points(self) -> tuple[Label, ...]:
        return tuple(label for label, c in self.conditions.items() if c.kind == POINT)

    @property
    def lines(self) -> tuple[Label, ...]:
        return tuple(label for label, c in self.conditions.items() if c.kind == LINE)

    @property
    def free(self) -> tuple[Label, ...]:
        return tuple(label for label, c in self.conditions.items() if c.kind == FREE)

    def condition(self, label: Label) -> EndCondition:
        return self.conditions[label]

    def relabel(self, mapping: Mapping[Label, Label]) -> "Instance":
        """Apply a label bijection, leaving unmapped labels in place."""
        conds = {mapping.get(label, label): cond for label, cond in self.conditions.items()}
        if len(conds) != len(self.conditions):
            raise ValueError("relabelling is not injective on the instance")
        crs = tuple(
            CrossRatio(frozenset(mapping.get(x, x) for x in cr.entries)) for cr in self.crossratios
        )
        return Instance(self.degree, conds, crs)


class Validation(NamedTuple):
    """Outcome of :func:`validate`; truthy iff the instance is well posed."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def deficiency(degree: int, kinds: Sequence[str], crossratios: int) -> int:
    """How far a curve or one side of a split is from being zero-dimensional.

    ``kinds`` lists the condition kinds of its contracted ends and
    ``crossratios`` counts the cross-ratios it carries.  A well posed
    instance has deficiency 1.
    """
    return 3 * degree - (kinds.count(POINT) + crossratios - kinds.count(FREE))


def validate(inst: Instance) -> Validation:
    """Check that an instance is a well posed zero-dimensional count.

    Parameters
    ----------
    inst : Instance
        Structurally consistent instance (labels partition into kinds).

    Returns
    -------
    Validation
        Truthy iff ``3 d - 1 = #points + #crossratios - #free`` and
        every cross-ratio entry refers to a contracted end of ``inst``.
        On failure ``reason`` names the violated rule.
    """
    known = set(inst.labels)
    for cr in inst.crossratios:
        stray = cr.entries - known
        if stray:
            return Validation(False, f"cross-ratio entry {min(stray)} is not an end of the instance")
    kinds = [cond.kind for cond in inst.conditions.values()]
    delta = deficiency(inst.degree, kinds, len(inst.crossratios))
    if delta != 1:
        lhs = 3 * inst.degree - 1
        rhs = 3 * inst.degree - delta
        return Validation(
            False,
            f"dimension count off: 3*{inst.degree} - 1 = {lhs} but #points + #crossratios - #free = {rhs}",
        )
    return Validation(True)


KIND_RANK = {POINT: 0, LINE: 1, FREE: 2}
_MAX_LISTINGS = 720

# (kind rank, weight, membership vector): a label's condition and which
# listed cross-ratios hold it.  Labels with equal rows are interchangeable.
Row = tuple[int, int, tuple[bool, ...]]
# A class key: its degree and its rows with their counts, (kind rank, weight, membership, n).
Key = tuple[int, tuple[tuple[int, int, tuple[bool, ...], int], ...]]


def condition_row(cond: EndCondition, membership: tuple[bool, ...]) -> Row:
    return KIND_RANK[cond.kind], cond.weight, membership


def label_row(inst: Instance) -> Callable[[Label], Row]:
    """A label's row in ``inst``, over its listed cross-ratios."""
    crs = [cr.entries for cr in inst.crossratios]
    return lambda x: condition_row(inst.conditions[x], tuple(x in cr for cr in crs))


def label_rows(inst: Instance) -> dict[Row, int]:
    """How many labels of ``inst`` share each row, in the order rows first appear."""
    return dict(collections.Counter(map(label_row(inst), inst.labels)))


def rows_key(degree: int, rows: Mapping[Row, int]) -> Key:
    """Fingerprint of the instance with this degree and these row counts.

    An instance is fixed up to relabelling by its degree and the
    multiset of its rows.  The key takes the least such multiset over
    the listings that sort the cross-ratios by the sorted (kind rank,
    weight, membership count) of their entries, permuting only runs of
    equal signatures.  Past ``_MAX_LISTINGS`` such listings it keeps
    the given order within each run: equal keys still mean isomorphic
    instances, but relabelled copies may no longer share one.  The key
    is that least multiset as a sorted tuple, after the degree.
    """
    width = len(next(iter(rows))[2]) if rows else 0
    orders = [range(width)] if width < 2 else _listings(rows, width)
    best = min(
        sorted(
            [
                (rank, weight, tuple(map(vec.__getitem__, order)), n)
                for (rank, weight, vec), n in rows.items()
            ]
        )
        for order in orders
    )
    return degree, tuple(best)


def _listings(rows: Mapping[Row, int], width: int) -> list[list[int]]:
    """The column orders :func:`rows_key` minimizes over."""
    signature: list[list] = [[] for _ in range(width)]
    for (rank, weight, vec), n in rows.items():
        for j in itertools.compress(range(width), vec):
            signature[j] += [(rank, weight, sum(vec))] * n
    for entries in signature:
        entries.sort()
    by_signature = sorted(range(width), key=signature.__getitem__)
    runs = [list(run) for _, run in itertools.groupby(by_signature, signature.__getitem__)]
    if math.prod(math.factorial(len(run)) for run in runs) > _MAX_LISTINGS:
        return [by_signature]
    permuted = itertools.product(*map(itertools.permutations, runs))
    return [list(itertools.chain(*listing)) for listing in permuted]


def canonical_key(inst: Instance) -> Key:
    """Fingerprint invariant under relabelling of the contracted ends.

    It is the :func:`rows_key` of the instance's :func:`label_rows`;
    equal keys mean isomorphic instances.
    """
    return rows_key(inst.degree, label_rows(inst))


def json_checked(value: Any, what: str, *shape: int, leaf: type = int) -> Any:
    """Check a value read from a JSON document: one ``leaf``, or nested lists of them.

    ``shape`` holds each list level's length, 0 for any; lists come back
    as tuples.  Misfits, bools and floats among ints included, raise
    ValueError naming ``what``.  A flat list of fitting leaves is checked
    in one pass; any misfit takes the item-by-item path that names it.
    """
    if not shape and type(value) is leaf:
        return value
    if shape and isinstance(value, list) and shape[0] in (0, len(value)):
        if len(shape) == 1 and all(type(item) is leaf for item in value):
            return tuple(value)
        return tuple([json_checked(item, what, *shape[1:], leaf=leaf) for item in value])
    names = {int: "an integer", str: "a string", dict: "an object"}
    expected = f"a list of {shape[0] or 'any number of'} items" if shape else names[leaf]
    raise ValueError(f"{what}: expected {expected}, got {json.dumps(value)}")
