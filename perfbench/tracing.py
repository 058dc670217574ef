"""Per-layer tracing from outside the package.

The tracer replaces public functions with timing wrappers at the module
attribute each caller looks up (``crosskont.engine.canonical_key`` is
what ``Engine`` calls, ``crosskont.cli.multiplicity`` is what ``mult``
calls), and puts the originals back afterwards.  No file under ``src/``
changes.  A wrapper records a span (name, start, end, parent span, item)
and its counters; spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the part their
direct child spans cover.  Every span nests inside the ``cli.main`` span
of its item, so the self times of all layers add up to the time spent in
``cli.main``; the rest of the measured wall time is the harness's own
residual (output capture and the loop around each item).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "engine", "conditions", "splits", "resolution", "stablemap")
# What ``cli.main`` calls to do its work: parsing and each command's entry function.
ENTRY_SPANS = ("cli.parse", "engine.evaluate", "resolution.multiplicity", "stablemap.multiplicity")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self._stack: list[int] = []
        self._tallies: dict[str, list[int]] = {}  # calls per wrapper name
        self.keys: dict[str, set] = {}
        self.candidates = 0
        self.kept = 0
        self.trees = 0
        self.det_dim_max = 0
        self.item = ""
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        tally = self._tallies.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        # Counted functions are called up to a million times per pass, so
        # this wrapper records no span.
        tally = self._tallies.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if name not in self.missing:
                self.missing.append(name)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- hooks that turn call arguments into counters -------------------

    def _on_key(self, args, key) -> None:
        self.keys.setdefault(self.item, set()).add(key)

    def _on_enumerate(self, args, splits) -> None:
        inst, last = args[0], args[1]
        movable = set(inst.labels) - set(inst.crossratios[last].entries)
        self.candidates += (inst.degree + 1) * 2 ** len(movable)
        self.kept += len(splits)

    def _on_trees(self, args, trees) -> None:
        self.trees += len(trees)

    def _on_det(self, args, value) -> None:
        self.det_dim_max = max(self.det_dim_max, len(args[0]))

    def _on_parser(self, args, parser) -> None:
        parser.parse_args = self._span("cli.parse", parser.parse_args)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        cli = sys.modules["crosskont.cli"]
        engine = sys.modules["crosskont.engine"]
        conditions = sys.modules["crosskont.conditions"]
        resolution = sys.modules["crosskont.resolution"]
        stablemap = sys.modules["crosskont.stablemap"]
        span, count = self._span, self._count
        plan = [
            (cli, "main", lambda f: span("cli.main", f)),
            (cli, "build_parser", lambda f: span("cli.parse", f, self._on_parser)),
            (cli, "cross_ratio_multiplicity", lambda f: span("resolution.multiplicity", f)),
            (cli, "multiplicity", lambda f: span("stablemap.multiplicity", f)),
            (engine.Engine, "evaluate", lambda f: span("engine.evaluate", f)),
            (engine.Engine, "_eval", lambda f: count("engine.eval", f)),
            (engine, "base_no_crossratios", lambda f: span("engine.base", f)),
            (engine, "base_degree_zero", lambda f: span("engine.star", f)),
            (engine, "canonical_key", lambda f: span("conditions.canonical_key", f, self._on_key)),
            (engine, "validate", lambda f: span("conditions.validate", f)),
            (engine, "enumerate_splits", lambda f: span("splits.enumerate", f, self._on_enumerate)),
            (engine, "build_subinstances", lambda f: span("splits.build", f)),
            (engine, "cross_ratio_multiplicity", lambda f: span("resolution.multiplicity", f)),
            (conditions.Instance, "condition", lambda f: count("conditions.condition", f)),
            (resolution, "total_resolutions",
             lambda f: span("resolution.total_resolutions", f, self._on_trees)),
            (stablemap, "cross_ratio_multiplicity", lambda f: span("resolution.multiplicity", f)),
            (stablemap, "ev_matrix", lambda f: span("stablemap.ev_matrix", f)),
            (stablemap, "integer_determinant", lambda f: span("stablemap.det", f, self._on_det)),
            (stablemap, "check_split_multiplicity", lambda f: span("stablemap.check_split", f)),
        ]
        for owner, attr, make in plan:
            self._patch(owner, attr, make)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(summed duration per span name, summed self time per span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        duration: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            duration[name] += end - start
            own[name] += end - start - covered
        return dict(duration), dict(own)

    def uncovered(self) -> float:
        """Time in ``cli.main`` spans outside their direct child spans named in ENTRY_SPANS."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == "cli.main":
                total += end - start
            elif name in ENTRY_SPANS and parent >= 0 and self.spans[parent][0] == "cli.main":
                total -= end - start
        return total

    def layer_self(self) -> dict[str, float]:
        """Summed self time per layer."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.totals()[1].items():
            layers[name.split(".")[0]] += seconds
        return layers

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for everything traced so far (one pass)."""
        duration = self.totals()[0]
        own = self.layer_self()
        c = Counter({name: tally[0] for name, tally in self._tallies.items()})
        nodes = sum(len(keys) for keys in self.keys.values())
        key_calls = c["conditions.canonical_key"]
        return {
            "cli.parse_s": duration.get("cli.parse", 0.0),
            "cli.self_s": own["cli"],
            "engine.self_s": own["engine"],
            "engine.nodes": nodes,
            "engine.memo_hit_ratio": 1 - nodes / key_calls if key_calls else 0.0,
            "engine.evaluate_calls": c["engine.eval"],
            "engine.base_calls": c["engine.base"],
            "engine.star_calls": c["engine.star"],
            "conditions.canonical_key_calls": key_calls,
            "conditions.canonical_key_s": duration.get("conditions.canonical_key", 0.0),
            "conditions.validate_calls": c["conditions.validate"],
            "conditions.validate_s": duration.get("conditions.validate", 0.0),
            "conditions.condition_calls": c["conditions.condition"],
            "splits.enumerate_calls": c["splits.enumerate"],
            "splits.enumerate_s": duration.get("splits.enumerate", 0.0),
            "splits.candidates": self.candidates,
            "splits.kept": self.kept,
            "splits.kept_ratio": self.kept / self.candidates if self.candidates else 0.0,
            "splits.build_calls": c["splits.build"],
            "splits.build_s": duration.get("splits.build", 0.0),
            "resolution.multiplicity_calls": c["resolution.multiplicity"],
            "resolution.total_resolutions_s": duration.get("resolution.total_resolutions", 0.0),
            "resolution.trees": self.trees,
            "stablemap.multiplicity_calls": c["stablemap.multiplicity"],
            "stablemap.self_s": own["stablemap"],
            "stablemap.ev_matrix_s": duration.get("stablemap.ev_matrix", 0.0),
            "stablemap.det_s": duration.get("stablemap.det", 0.0),
            "stablemap.det_dim_max": self.det_dim_max,
            "stablemap.check_split_s": duration.get("stablemap.check_split", 0.0),
        }

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )
