"""Command-line interface.

    polymat [options] <command> <file>

Commands: validate, bases, poly, structure, coeffs, verify; options
(--kind, --machine, --max-n) may come before or after the command, and
``polymat --help`` describes both.  The input file (or
``-`` for standard input) holds one document in the format of
:mod:`polymat.documents`; graphs, matroids, and hypergraphs are turned
into polymatroids before the polynomial commands run.

Exit codes: 0 success, 1 a verification or in-range coefficient check
failed, 2 the input could not be read, parsed, validated or sized, or the
output could not be written; a closed standard error changes none of them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from itertools import chain, islice
from typing import Callable

from .activity import exterior_by_slices, interior_by_slices
from .core import DEFAULT_MAX_GROUND_SET, Polymatroid, RankTable, SizeLimitError
from .documents import (
    GraphDocument,
    HypergraphDocument,
    InputDocument,
    MatroidDocument,
    RankTableDocument,
    _subset_text,
    parse_document,
)
from .graphs import Graph
from .hypergraphs import Hypergraph
from .matroids import DEFAULT_MAX_ELEMENTS, Matroid
from .polynomials import Polynomial
from .structure import (
    circuit_sets,
    deficiency_thresholds,
    exterior_coefficient_formula,
    exterior_formula_range,
    flats,
    full_deficiency,
    hyperplane_sets,
    interior_coefficient_formula,
    interior_formula_range,
    rank_drop_thresholds,
)
from .subsets import elements_of
from .verify import CheckResult, verify_graph, verify_hypergraph, verify_matroid, verify_polymatroid

# Each --kind value as the polynomials that poly and coeffs report, in output order.
_KINDS = {"interior": ("interior",), "exterior": ("exterior",), "both": ("interior", "exterior")}


def _build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<10} {fn.__doc__}" for name, fn in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="polymat",
        usage="%(prog)s [options] <command> <file>",
        description="Interior and exterior polynomials of integer polymatroids,\n"
        "with graph, matroid, and hypergraph frontends.",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="<command>", help="see below")
    parser.add_argument("file", metavar="<file>", help="input document path, or - for stdin")
    parser.add_argument("--kind", choices=_KINDS, default="both",
                        help="which polynomial(s) to use (poly, coeffs); default both")
    parser.add_argument("--machine", action="store_true", help="emit a JSON report instead of text")
    parser.add_argument("--max-n", type=int, metavar="N", help="override the size guard (default "
                        f"{DEFAULT_MAX_GROUND_SET} for rank tables and hypergraphs, "
                        f"{DEFAULT_MAX_ELEMENTS} for graphs and matroids)")
    return parser


def _note(line: str) -> None:
    """Write a line to stderr; a closed stderr loses it and changes no exit code, as in argparse."""
    with suppress(AttributeError, OSError):  # None: the process started with descriptor 2 closed
        sys.stderr.write(line + "\n")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with descriptor 0 closed
                raise OSError("standard input is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:  # bad input, like a parse error; ``main`` keeps OSError for output
        raise ValueError(f"cannot read input: {exc}") from None


def _size_cap(args, default: int, size: int, what: str) -> None:
    cap = args.max_n if args.max_n is not None else default
    if args.max_n is not None and args.max_n > default:
        _note(f"warning: size limit raised to {args.max_n} (default {default}); "
              "run time grows exponentially")
    if size > cap:
        raise SizeLimitError(
            f"{what} {size} exceeds the limit {cap}; raise it with --max-n"
        )


def _build_object(
    doc: InputDocument, args
) -> tuple[Polymatroid, dict, Callable[[], list[CheckResult]]]:
    """The document's polymatroid behind size guards, its ``validate`` summary
    fields, and its ``verify`` suite.

    Graphs and hypergraphs raise here when disconnected.
    """
    if isinstance(doc, RankTableDocument):
        _size_cap(args, DEFAULT_MAX_GROUND_SET, doc.n, "ground-set size")
        # The parser checked range, duplicates and totality, and listed the entries in mask order.
        P = Polymatroid(RankTable(doc.n, [v for _, v in doc.entries], max_n=doc.n))
        return P, {}, lambda: verify_polymatroid(P)
    if isinstance(doc, GraphDocument):
        _size_cap(args, DEFAULT_MAX_ELEMENTS, len(doc.edges), "edge count")
        G = Graph(doc.vertex_count, doc.edges)
        fields = {"vertices": G.vertex_count, "edges": G.edge_count, "connected": True}
        return G.cycle_matroid().to_polymatroid(), fields, lambda: verify_graph(G)
    if isinstance(doc, MatroidDocument):
        _size_cap(args, DEFAULT_MAX_ELEMENTS, doc.n, "ground-set size")
        M = Matroid(doc.n, doc.bases)
        fields = {"elements": M.n, "rank": M.rank, "bases": len(M.base_masks)}
        return M.to_polymatroid(), fields, lambda: verify_matroid(M)
    if isinstance(doc, HypergraphDocument):
        _size_cap(args, DEFAULT_MAX_GROUND_SET, len(doc.hyperedges), "hyperedge count")
        H = Hypergraph(doc.vertices, doc.hyperedges)
        fields = {"vertices": H.vertex_count, "hyperedges": H.edge_count, "connected": True}
        return H.to_polymatroid(), fields, lambda: verify_hypergraph(H)
    raise TypeError(f"unhandled document {doc!r}")


def _subset_lists(masks) -> list[list[int]]:
    return sorted((list(elements_of(m)) for m in masks), key=lambda s: (len(s), s))


def _family_payload(groups: dict[int, frozenset[int]]) -> dict[str, list[list[int]]]:
    return {str(j): _subset_lists(s) for j, s in groups.items() if s}


# -- commands -----------------------------------------------------------
# Each takes (document, polymatroid, summary fields, verify suite, options) and
# returns (text lines, JSON payload, exit code); ``main`` prints one of the two,
# the lines 4,096 at a time, so they may come lazily.


def _cmd_validate(doc, P, fields, suite, args):
    """parse the document and check its defining axioms"""
    lines = [f"valid {doc.kind}"]
    if fields:
        lines.append(" ".join(k if v is True else f"{k} {v}" for k, v in fields.items()))
    lines.append(f"ground-set {P.n} full-rank {P.full_rank}")
    return lines, {"valid": True, **fields, "ground_set": P.n, "full_rank": P.full_rank}, 0


def _cmd_bases(doc, P, fields, suite, args):
    """list every basis vector"""
    bases = P.bases()
    payload = {"count": len(bases)}
    if args.machine:
        payload["bases"] = bases  # json writes the tuples as arrays: no list copy
    row = " ".join(["%d"] * P.n)
    return chain([f"bases {len(bases)}"], map(row.__mod__, bases)), payload, 0


def _polynomials(P: Polymatroid, kind: str) -> list[tuple[str, Polynomial]]:
    """The polynomials ``--kind`` names, in output order, by the slice recursion alone."""
    routes = {"interior": interior_by_slices, "exterior": exterior_by_slices}
    return [(name, routes[name](P)) for name in _KINDS[kind]]


def _cmd_poly(doc, P, fields, suite, args):
    """compute the interior and/or exterior polynomial"""
    lines = []
    payload = {}
    for name, poly in _polynomials(P, args.kind):
        pretty = poly.pretty()
        lines.append(f"{name} " + " ".join(map(str, poly.coeffs)))
        lines.append(f"{name}-pretty {pretty}")
        payload[name] = {"coefficients": list(poly.coeffs), "pretty": pretty}
    return lines, payload, 0


def _cmd_structure(doc, P, fields, suite, args):
    """report flats, set families, and thresholds"""
    found, hyperplanes, circuits = flats(P), hyperplane_sets(P), circuit_sets(P)
    rank_drop, deficiency, g = rank_drop_thresholds(P), deficiency_thresholds(P), full_deficiency(P)
    lines = [
        f"ground-set {P.n}",
        f"full-rank {P.full_rank}",
        f"full-deficiency {g}",
        "rank-drop-thresholds " + " ".join(f"{k}:{v}" for k, v in sorted(rank_drop.items())),
        "deficiency-thresholds " + " ".join(f"{k}:{v}" for k, v in sorted(deficiency.items())),
        f"flats {len(found)}",
    ]
    lines.extend(f"flat {_subset_text(elements_of(m))}" for m in found)
    for label, groups in (
        ("hyperplanes complement-size", hyperplanes),
        ("circuits size", circuits),
    ):
        for j in sorted(groups):
            if groups[j]:
                members = " ".join(_subset_text(elements_of(m)) for m in sorted(groups[j]))
                lines.append(f"{label} {j} count {len(groups[j])}: {members}")
    payload = {
        "ground_set": P.n,
        "full_rank": P.full_rank,
        "full_deficiency": g,
        "rank_drop_thresholds": {str(k): v for k, v in rank_drop.items()},
        "deficiency_thresholds": {str(k): v for k, v in deficiency.items()},
        "flats": _subset_lists(found),
        "hyperplanes": _family_payload(hyperplanes),
        "circuits": _family_payload(circuits),
    }
    return lines, payload, 0


def _coeff_rows(P: Polymatroid, poly: Polynomial, formula, valid_range: int):
    top = max(poly.degree, valid_range - 1, 0)
    rows = []
    for i in range(top + 1):
        value = formula(P, i, unchecked=True)
        enumerated = poly.coefficient(i)
        rows.append(
            {
                "i": i,
                "formula": value,
                "enumerated": enumerated,
                "in_range": i < valid_range,
                "match": value == enumerated,
            }
        )
    return rows


def _cmd_coeffs(doc, P, fields, suite, args):
    """compare closed-form coefficients against enumeration"""
    formulas = {
        "interior": (interior_coefficient_formula, interior_formula_range),
        "exterior": (exterior_coefficient_formula, exterior_formula_range),
    }
    # Every guaranteed range before any polynomial: a refused threshold map stops the command first.
    ranges = {name: formulas[name][1](P) for name in _KINDS[args.kind]}
    lines = []
    payload = {}
    failed = False
    for name, poly in _polynomials(P, args.kind):
        valid_range = ranges[name]
        rows = _coeff_rows(P, poly, formulas[name][0], valid_range)
        lines.append(f"{name} guaranteed-range {valid_range}")
        for row in rows:
            tag = "in-range" if row["in_range"] else "flagged"
            verdict = "match" if row["match"] else "differs"
            lines.append(
                f"{name} i={row['i']} formula {row['formula']} "
                f"enumerated {row['enumerated']} {tag} {verdict}"
            )
            if row["in_range"] and not row["match"]:
                failed = True
        payload[name] = {"guaranteed_range": valid_range, "rows": rows}
    payload["passed"] = not failed
    lines.append("coeffs " + ("ok" if not failed else "FAILED: in-range mismatch"))
    return lines, payload, 1 if failed else 0


def _cmd_verify(doc, P, fields, suite, args):
    """run the full identity suite for the input"""
    checks = suite()
    lines = [f"PASS {c.name}" if c.passed else f"FAIL {c.name} — {c.detail}" for c in checks]
    good = sum(1 for c in checks if c.passed)
    lines.append(f"verify {good}/{len(checks)} checks passed")
    payload = {"checks": [c._asdict() for c in checks], "passed": good == len(checks)}
    return lines, payload, 0 if good == len(checks) else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "bases": _cmd_bases,
    "poly": _cmd_poly,
    "structure": _cmd_structure,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
}
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = parse_document(_read_input(args.file))
        P, fields, suite = _build_object(doc, args)
        lines, payload, code = _COMMANDS[args.command](doc, P, fields, suite, args)
        if sys.stdout is None:  # the process started with descriptor 1 closed
            raise OSError("standard output is closed")
        if args.machine:
            import json  # only --machine pays for the encoder's import
            print(json.dumps({**payload, "command": args.command, "kind": doc.kind},
                             sort_keys=True, indent=2))
        else:
            # No command returns zero lines, so this writes what one print of them all would.
            lines = iter(lines)
            while chunk := list(islice(lines, 4096)):
                sys.stdout.write("\n".join(chunk) + "\n")
        sys.stdout.flush()  # here, so a closed pipe is reported below and not at interpreter exit
        return code
    except OSError as exc:
        _note(f"error: cannot write output: {exc}")
        return 2
    except ValueError as exc:
        # Parse errors, axiom violations, size guards, and other bad input.
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
