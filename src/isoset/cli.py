"""Command-line front end: construct, verify, search, rank, table.

Exit codes: 0 ok, 1 pattern violation, 2 range error, argument error or
unwritable output (a path that cannot be written, or a stdout closed
early), 3 parse error, 4 incomplete search.  Argument errors exit 2 from
argparse; library errors map to their codes in ``main``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

from .construct import (
    circulant_isolation,
    identity_family,
    isolation_construct,
    isolation_regime,
    isolation_size,
    triangular_family,
)
from .core import (
    BoolMatrix,
    FamilyPair,
    ParseError,
    RangeError,
    ResourceLimitError,
    build_A,
    family_to_matrix,
    max_dimension,
)
from .oracle import (
    RankBudget,
    boolean_rank_exact,
    cover_to_factors,
    max_identity_bruteforce,
    max_isolation_bruteforce,
    max_triangular_bruteforce,
)
from .serialize import family_to_json, load_document, matrix_to_text
from .verify import (
    verify_identity_decomposition,
    verify_matrix_identity,
    verify_matrix_isolation,
    verify_matrix_triangular,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_RANGE = 2
EXIT_PARSE = 3
EXIT_INCOMPLETE = 4

_CHECKS = {
    "identity": verify_matrix_identity,
    "triangular": verify_matrix_triangular,
    "isolation": verify_matrix_isolation,
}

# kind -> (library call, the integer options it takes, in call order); each
# kind's sub-parser takes exactly these options, all of them required
_CONSTRUCTIONS = {
    "identity": (identity_family, ("k", "t")),
    "isolation": (isolation_construct, ("k", "t")),
    "triangular": (triangular_family, ("a", "b")),
    "circulant": (circulant_isolation, ("p", "q")),
}
_SEARCHES = {
    "isolation": (max_isolation_bruteforce, ("k", "t")),
    "identity": (max_identity_bruteforce, ("k", "t")),
    "triangular": (max_triangular_bruteforce, ("a", "b", "k")),
}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise RangeError(f"cannot write {out}: {exc}") from exc


def _as_matrix(obj: FamilyPair | BoolMatrix) -> BoolMatrix:
    return family_to_matrix(obj) if isinstance(obj, FamilyPair) else obj


def _cmd_construct(args) -> int:
    build, names = _CONSTRUCTIONS[args.kind]
    obj = build(*(getattr(args, name) for name in names))
    parts = []
    if args.format in ("json", "both"):
        parts.append(family_to_json(obj))
    if args.format in ("grid", "both"):
        parts.append(matrix_to_text(_as_matrix(obj)))
    _write_output("".join(parts), args.out)
    return EXIT_OK


def _load_matrix(path: str) -> BoolMatrix:
    """Read a family or matrix document; a family yields its realized matrix."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _as_matrix(load_document(text))


def _cmd_verify(args) -> int:
    m = _load_matrix(args.input)
    try:
        cert = _CHECKS[args.pattern](m)
    except ValueError as exc:
        return _fail(EXIT_RANGE, str(exc))
    if cert.ok:
        print("ok")
        return EXIT_OK
    for i, j, observed, expected in cert.violations:
        print(f"{i} {j} {observed} {expected}")
    return EXIT_VIOLATION


def _cmd_search(args) -> int:
    search, names = _SEARCHES[args.kind]
    budget = RankBudget(max_nodes=args.max_nodes)
    result = search(*(getattr(args, name) for name in names), budget)
    print(result.optimum if result.complete else f">= {result.optimum}")
    print(f"nodes {result.nodes_explored}")
    if args.witness_out:
        _write_output(family_to_json(result.witness), args.witness_out)
        print(f"witness {args.witness_out}")
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def _cmd_rank(args) -> int:
    m = build_A(*args.gen_A) if args.gen_A else _load_matrix(args.input)
    result = boolean_rank_exact(m, RankBudget(max_nodes=args.max_nodes))
    if result.complete:
        print(f"rank {result.optimum}")
    else:
        print(f"rank in [{result.lower_bound}, {result.optimum}]")
    for idx, (rect_rows, rect_cols) in enumerate(result.witness, 1):
        rows = ",".join(map(str, rect_rows))
        cols = ",".join(map(str, rect_cols))
        print(f"rect {idx}: rows {rows} cols {cols}")
    code = EXIT_OK if result.complete else EXIT_INCOMPLETE
    if m.n_rows == m.n_cols and m == BoolMatrix.identity(m.n_rows) and result.witness:
        x, y = cover_to_factors(result.witness, m.n_rows, m.n_cols)
        cert = verify_identity_decomposition(x, y)
        print(f"decomposition {'ok' if cert.ok else 'violated'}")
        for note in cert.notes:
            print(f"  {note}")
        if not cert.ok and code == EXIT_OK:
            code = EXIT_VIOLATION
    return code


def _cmd_table(args) -> int:
    try:
        lo_text, _, hi_text = args.k_range.partition("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        return _fail(EXIT_RANGE, f"--k-range must look like LO..HI, got {args.k_range!r}")
    if lo > hi:
        return _fail(EXIT_RANGE, f"empty range {args.k_range!r}")
    header = f"{'k':>4} {'size':>5}  {'regime':<11}"
    if args.oracle:
        header += f" {'oracle':>7}  {'complete':<8}"
    print(header)
    budget = RankBudget(max_nodes=args.max_nodes)
    for k in range(lo, hi + 1):
        size = isolation_size(k, args.t)
        regime = isolation_regime(k, args.t)
        line = f"{k:>4} {size:>5}  {regime:<11}"
        if args.oracle:
            try:
                result = max_isolation_bruteforce(k, args.t, budget)
                mark = str(result.optimum) if result.complete else f">={result.optimum}"
                line += f" {mark:>7}  {'yes' if result.complete else 'no':<8}"
            except ResourceLimitError:
                line += f" {'-':>7}  {'-':<8}"
        print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoset",
        allow_abbrev=False,
        description="Constructions, verifiers and brute-force oracles for extremal "
        "submatrix structures of the t-subset intersection matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verb = partial(sub.add_parser, allow_abbrev=False)  # no prefix matching of options

    p_construct = verb("construct", help="run a construction and print it")
    kinds = p_construct.add_subparsers(dest="kind", required=True)
    for kind, (_, names) in _CONSTRUCTIONS.items():
        p_kind = kinds.add_parser(kind, allow_abbrev=False)
        for name in names:
            p_kind.add_argument(f"--{name}", type=int, required=True)
        formats = ["grid"] if kind == "circulant" else ["json", "grid", "both"]
        p_kind.add_argument("--format", choices=formats, default=formats[-1])
        p_kind.add_argument("--out", help="output path (default: stdout)")
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = verb("verify", help="check a family or matrix file against a pattern")
    p_verify.add_argument("pattern", choices=["identity", "triangular", "isolation"])
    p_verify.add_argument("input", help="family JSON or matrix text file")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = verb("search", help="brute-force maximum structure search")
    kinds = p_search.add_subparsers(dest="kind", required=True)
    for kind, (_, names) in _SEARCHES.items():
        p_kind = kinds.add_parser(kind, allow_abbrev=False)
        for name in names:
            p_kind.add_argument(f"--{name}", type=int, required=True)
        p_kind.add_argument("--max-nodes", type=_positive_int, default=RankBudget.max_nodes)
        p_kind.add_argument("--witness-out", help="write the witness family as JSON")
    p_search.set_defaults(func=_cmd_search)

    p_rank = verb("rank", help="exact Boolean rank (minimum biclique cover)")
    source = p_rank.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", help="matrix text or family JSON file")
    source.add_argument("--gen-A", nargs=2, type=int, metavar=("K", "T"),
                        help="rank the full intersection matrix for (K, T)")
    p_rank.add_argument("--max-nodes", type=_positive_int, default=RankBudget.max_nodes)
    p_rank.set_defaults(func=_cmd_rank)

    p_table = verb("table", help="isolation sizes per k, with optional oracle column")
    p_table.add_argument("--t", type=int, required=True)
    p_table.add_argument("--k-range", required=True, help="inclusive range LO..HI")
    p_table.add_argument("--oracle", action="store_true")
    p_table.add_argument("--max-nodes", type=_positive_int, default=RankBudget.max_nodes)
    p_table.set_defaults(func=_cmd_table)
    return parser


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device.

    What the closed pipe left in stdout's buffer is flushed again at exit,
    which would print "Exception ignored" with a traceback.  A stdout with
    no descriptor holds no such buffer.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_RANGE
    try:
        max_dimension()  # a malformed ISOSET_MAX_DIM is a range error for every verb
    except ValueError as exc:
        return _fail(EXIT_RANGE, str(exc))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except ParseError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except (RangeError, ResourceLimitError) as exc:
        return _fail(EXIT_RANGE, str(exc))
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
