"""Command-line front door.

One document per invocation, verdicts to stdout, optionally a JSON report
file.  Exit codes: 0 for any computed verdict (refutations included), 1
for input errors, 2 for internal errors, 3 when a theorem report
contradicts its expected conclusion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .documents import DocumentError, parse_document, parse_grid_scale, run_document
from .ordersets import Semantics
from .records import replace

COMMANDS = {
    "check-set": "check-set",
    "convergence": "convergence",
    "fit": "fit",
    "theorems": "theorem",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordertopo",
        description="exact verdicts about order topologies on vector lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run a {command} document")
        p.add_argument("document", help="path to the problem document (JSON)")
        p.add_argument("--semantics", choices=[s.value for s in Semantics],
                       help="override the document's strictness semantics")
        p.add_argument("--grid-scale", help="scale factor for search grids (rational)")
        p.add_argument("--output", help="write the JSON report to this path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.document).read_text())
    except FileNotFoundError:
        print(f"error: no such document: {args.document}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as err:
        print(f"error: document is not valid JSON: {err}", file=sys.stderr)
        return 1
    try:
        doc = parse_document(raw, expected_task=COMMANDS[args.command])
        doc = _apply_overrides(doc, args)
        result = run_document(doc)
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(result.text)
    if args.output:
        payload = json.dumps(result.report, indent=2, sort_keys=True) + "\n"
        Path(args.output).write_text(payload)
    return result.exit_code


def _apply_overrides(doc, args):
    if args.semantics:
        doc = replace(doc, semantics=Semantics(args.semantics))
    if args.grid_scale is not None:
        scale = parse_grid_scale(args.grid_scale, "--grid-scale")
        doc = replace(doc, config=replace(doc.config, grid_scale=scale))
    return doc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
