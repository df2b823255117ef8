"""Command-line harness: identity verification, orbit computation, and
flype-relatedness checks over diagram tables.

Exit codes: 0 success, 1 a verification check failed, 2 input error (an
unreadable table, including one that is not UTF-8 or whose JSON nests too
deeply to parse, an unknown entry, or a ``DiagramError`` raised on the
input diagrams), 3 inconclusive (a search limit was hit).  A negative
``--max-nodes`` or ``--max-depth`` is a usage error: argparse exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codecs import DiagramDocument, load_table
from .diagram import DiagramError
from .goeritz import check_identities
from .orbit import Relation, flype_orbit, is_flype_related

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _load(path: str) -> list[DiagramDocument]:
    try:
        return load_table(path)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and SchemaError
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemExit(_fail(f"cannot load {path}: {exc}"))


def _fail(message: str) -> int:
    print(f"taitkit: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _find(docs: list[DiagramDocument], name: str) -> DiagramDocument:
    for doc in docs:
        if doc.name == name:
            return doc
    raise SystemExit(_fail(f"no table entry named {name!r}"))


def cmd_invariants(input_path: str, output_path: str | None) -> int:
    """Run the identity checks over every table entry."""
    docs = sorted(_load(input_path), key=lambda d: d.name)

    def run(doc: DiagramDocument) -> dict:
        try:
            report = check_identities(doc.build())
            return {"name": doc.name, "pass": report.all_passed,
                    "report": report.to_json()}
        except DiagramError as exc:
            return {"name": doc.name, "pass": False,
                    "report": [{"check": "preconditions", "pass": False,
                                "detail": str(exc)}]}

    results = [run(doc) for doc in docs]
    text = json.dumps(results, indent=1)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failures = [r["name"] for r in results if not r["pass"]]
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_orbit(input_path: str, name: str, max_nodes: int, max_depth: int,
              output_path: str | None, dot_path: str | None,
              include_mirror: bool = False) -> int:
    """Compute a flype orbit and write its report."""
    doc = _find(_load(input_path), name)
    try:
        report = flype_orbit(doc.build(), max_nodes=max_nodes, max_depth=max_depth,
                             include_reflection=include_mirror)
    except DiagramError as exc:
        return _fail(f"{name}: {exc}")
    text = report.dumps()
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_dot())
    print(f"orbit of {name}: {report.size} diagrams"
          + (" (truncated)" if report.truncated else ""), file=sys.stderr)
    return EXIT_INCONCLUSIVE if report.truncated else EXIT_OK


def cmd_flype_check(input_path: str, name_a: str, name_b: str,
                    max_nodes: int, max_depth: int) -> int:
    """Decide whether two entries are flype-related."""
    docs = _load(input_path)
    doc_a, doc_b = _find(docs, name_a), _find(docs, name_b)
    try:
        relation = is_flype_related(doc_a.build(), doc_b.build(),
                                    max_nodes=max_nodes, max_depth=max_depth)
    except DiagramError as exc:
        return _fail(f"{exc}")
    print(relation.describe())
    if relation.verdict is Relation.NOT_RELATED_WITHIN and relation.truncated:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _limit(text: str) -> int:
    """argparse type of ``--max-nodes`` and ``--max-depth``: an integer >= 0."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taitkit",
        description="Verify chessboard-form identities and explore flype orbits "
                    "of alternating link diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="run identity checks over a table")
    p_inv.add_argument("--input", required=True)
    p_inv.add_argument("--output")

    p_orb = sub.add_parser("orbit", help="compute the flype orbit of one entry")
    p_orb.add_argument("--input", required=True)
    p_orb.add_argument("--name", required=True)
    p_orb.add_argument("--max-nodes", type=_limit, default=1000)
    p_orb.add_argument("--max-depth", type=_limit, default=100)
    p_orb.add_argument("--output")
    p_orb.add_argument("--dot")
    p_orb.add_argument("--include-mirror", action="store_true",
                       help="merge mirror-image diagrams (exploratory)")

    p_chk = sub.add_parser("flype-check", help="decide flype-relatedness")
    p_chk.add_argument("--input", required=True)
    p_chk.add_argument("--a", required=True)
    p_chk.add_argument("--b", required=True)
    p_chk.add_argument("--max-nodes", type=_limit, default=10_000)
    p_chk.add_argument("--max-depth", type=_limit, default=1000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "invariants":
        return cmd_invariants(args.input, args.output)
    if args.command == "orbit":
        return cmd_orbit(args.input, args.name, args.max_nodes, args.max_depth,
                         args.output, args.dot, include_mirror=args.include_mirror)
    if args.command == "flype-check":
        return cmd_flype_check(args.input, args.a, args.b,
                               args.max_nodes, args.max_depth)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
