"""Command line front end.

Subcommands::

    crosskont eval INSTANCE.json [--trace] [--check] [--jobs N] [--max-nodes N]
    crosskont kontsevich DMAX
    crosskont multcr PROFILE.json
    crosskont mult MAP.json

Instance files use schema ``instance/1``::

    {"schema": "instance/1", "degree": 2, "points": [1, 2, 3],
     "lines": [{"label": 4, "weight": 1}], "free": [],
     "crossratios": [[1, 2, 3, 4]]}

Vertex profile files use schema ``profile/1``::

    {"schema": "profile/1", "slots": [1, 2, 3, 4, 5],
     "crossratios": [[1, 2, 3, 4], [1, 2, 3, 5]]}

Map files use schema ``stablemap/1`` (see :mod:`crosskont.stablemap`).
All output is exact decimal; the count is always the last stdout line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Mapping, Sequence

from .conditions import Instance, json_checked
from .engine import (
    DEFAULT_MAX_NODES,
    Engine,
    ResourceLimitError,
    evaluate_invariance_battery,
    kontsevich,
)
from .resolution import VertexProfile, cross_ratio_multiplicity
from .stablemap import multiplicity, stablemap_from_dict


def instance_from_dict(data: Mapping) -> Instance:
    """Parse an ``instance/1`` document."""
    if data.get("schema") != "instance/1":
        raise ValueError(f"expected schema instance/1, got {data.get('schema')!r}")
    try:
        lines = [
            (
                json_checked(item["label"], "line label"),
                json_checked(item.get("weight", 1), "line weight"),
            )
            for item in json_checked(data.get("lines", []), "lines", 0, leaf=dict)
        ]
        return Instance.build(
            json_checked(data["degree"], "degree"),
            points=json_checked(data.get("points", []), "points", 0),
            lines=lines,
            free=json_checked(data.get("free", []), "free", 0),
            crossratios=json_checked(data.get("crossratios", []), "crossratios", 0, 0),
        )
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in instance file") from None


def profile_from_dict(data: Mapping) -> VertexProfile:
    """Parse a ``profile/1`` document."""
    if data.get("schema") != "profile/1":
        raise ValueError(f"expected schema profile/1, got {data.get('schema')!r}")
    try:
        slots = json_checked(data["slots"], "slots", 0)
        if len(set(slots)) < len(slots):
            raise ValueError(f"slots: expected distinct slots, got {json.dumps(slots)}")
        crossratios = json_checked(data.get("crossratios", []), "crossratios", 0, 0)
        return VertexProfile.of(slots, crossratios)
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in profile file") from None


def _load(path: str) -> Mapping:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: line {err.lineno}: {err.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: the document is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the document must be a JSON object")
    return data


def cmd_eval(args: argparse.Namespace) -> int:
    inst = instance_from_dict(_load(args.path))
    engine = Engine(max_nodes=args.max_nodes)
    if args.trace:
        for line in engine.trace(inst):
            print(line)
    value = engine.evaluate(inst)
    if args.check:
        report = evaluate_invariance_battery(inst, max_nodes=args.max_nodes)
        if not report.ok:
            for variant in report.mismatches:
                print(
                    f"mismatch: cr {variant.last} pairing "
                    f"({variant.pairing.first[0]} {variant.pairing.first[1]} | "
                    f"{variant.pairing.second[0]} {variant.pairing.second[1]}) "
                    f"gave {variant.value}, expected {report.value}",
                    file=sys.stderr,
                )
            return 1
        print(f"invariance ok over {len(report.variants)} variants")
    print(value)
    return 0


def cmd_kontsevich(args: argparse.Namespace) -> int:
    for d in range(1, args.dmax + 1):
        print(d, kontsevich(d))
    return 0


def cmd_multcr(args: argparse.Namespace) -> int:
    profile = profile_from_dict(_load(args.path))
    print(cross_ratio_multiplicity(profile))
    return 0


def cmd_mult(args: argparse.Namespace) -> int:
    map, crossratios = stablemap_from_dict(_load(args.path))
    print(multiplicity(map, crossratios))
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosskont",
        description="Exact counts of rational plane tropical curves under "
        "point, multi line and cross-ratio conditions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    eval_parser = commands.add_parser("eval", help="evaluate an instance file")
    eval_parser.add_argument("path", help="instance/1 JSON file")
    eval_parser.add_argument("--trace", action="store_true", help="print the recursion tree")
    eval_parser.add_argument(
        "--check", action="store_true", help="verify invariance under all root resolutions"
    )
    eval_parser.add_argument(
        "--jobs", type=_positive, default=1, metavar="N", help="ignored; evaluation is sequential"
    )
    eval_parser.add_argument(
        "--max-nodes",
        type=_positive,
        default=DEFAULT_MAX_NODES,
        metavar="N",
        help="recursion node budget",
    )
    eval_parser.set_defaults(run=cmd_eval)

    table_parser = commands.add_parser("kontsevich", help="print the degree count table")
    table_parser.add_argument("dmax", type=_positive, help="largest degree to print")
    table_parser.set_defaults(run=cmd_kontsevich)

    multcr_parser = commands.add_parser(
        "multcr", help="cross-ratio multiplicity of a vertex profile"
    )
    multcr_parser.add_argument("path", help="profile/1 JSON file")
    multcr_parser.set_defaults(run=cmd_multcr)

    mult_parser = commands.add_parser("mult", help="multiplicity of a stable map fixture")
    mult_parser.add_argument("path", help="stablemap/1 JSON file")
    mult_parser.set_defaults(run=cmd_mult)

    return parser


# Built on the first call to main, not at import, and reused afterwards; the
# lambda looks ``build_parser`` up at call time, so a wrapper put on it is seen.
_parser = functools.cache(lambda: build_parser())


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ResourceLimitError, ValueError, OSError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
