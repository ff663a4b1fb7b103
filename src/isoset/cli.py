"""Command-line front end: construct, verify, search, rank, table.

Exit codes: 0 ok, 1 pattern violation, 2 range error or unwritable output
(a path that cannot be written, or a stdout closed early), 3 parse error,
4 incomplete search.  Library errors map to their codes in ``main``.
"""

from __future__ import annotations

import argparse
import os
import sys
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


def _require(args, names: list[str], kind: str) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise RangeError(f"construct {kind} requires --{' --'.join(names)}")
        values.append(value)
    return values


def _cmd_construct(args) -> int:
    if args.kind == "circulant":
        p, q = _require(args, ["p", "q"], "circulant")
        if args.format == "json":
            return _fail(EXIT_RANGE, "circulant emits a matrix document; use --format grid")
        text = matrix_to_text(circulant_isolation(p, q))
    else:
        if args.kind == "identity":
            k, t = _require(args, ["k", "t"], "identity")
            fp = identity_family(k, t)
        elif args.kind == "isolation":
            k, t = _require(args, ["k", "t"], "isolation")
            fp = isolation_construct(k, t)
        else:
            a, b = _require(args, ["a", "b"], "triangular")
            fp = triangular_family(a, b)
        fmt = args.format or "both"
        parts = []
        if fmt in ("json", "both"):
            parts.append(family_to_json(fp))
        if fmt in ("grid", "both"):
            parts.append(matrix_to_text(family_to_matrix(fp)))
        text = "".join(parts)
    _write_output(text, args.out)
    return EXIT_OK


def _load_matrix(path: str) -> BoolMatrix:
    """Read a family or matrix document; a family yields its realized matrix."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    obj = load_document(text)
    return family_to_matrix(obj) if isinstance(obj, FamilyPair) else obj


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
    budget = RankBudget(max_nodes=args.max_nodes)
    if args.kind == "triangular":
        if args.a is None or args.b is None or args.k is None:
            raise RangeError("search triangular requires --a --b --k")
        result = max_triangular_bruteforce(args.a, args.b, args.k, budget)
    else:
        if args.k is None or args.t is None:
            raise RangeError(f"search {args.kind} requires --k --t")
        search = max_isolation_bruteforce if args.kind == "isolation" else max_identity_bruteforce
        result = search(args.k, args.t, budget)
    print(result.optimum if result.complete else f">= {result.optimum}")
    print(f"nodes {result.nodes_explored}")
    if args.witness_out:
        _write_output(family_to_json(result.witness), args.witness_out)
        print(f"witness {args.witness_out}")
    return EXIT_OK if result.complete else EXIT_INCOMPLETE


def _cmd_rank(args) -> int:
    budget = RankBudget(max_nodes=args.max_nodes, max_bicliques=args.max_bicliques)
    if args.gen_A:
        k, t = args.gen_A
        m = build_A(k, t)
    elif args.input:
        m = _load_matrix(args.input)
    else:
        return _fail(EXIT_RANGE, "rank requires an input path or --gen-A K T")
    result = boolean_rank_exact(m, budget)
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
        description="Constructions, verifiers and brute-force oracles for extremal "
        "submatrix structures of the t-subset intersection matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="run a construction and print it")
    p_construct.add_argument("kind", choices=["identity", "isolation", "triangular", "circulant"])
    p_construct.add_argument("--k", type=int)
    p_construct.add_argument("--t", type=int)
    p_construct.add_argument("--a", type=int)
    p_construct.add_argument("--b", type=int)
    p_construct.add_argument("--p", type=int)
    p_construct.add_argument("--q", type=int)
    p_construct.add_argument("--format", choices=["json", "grid", "both"])
    p_construct.add_argument("--out", help="output path (default: stdout)")
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="check a family or matrix file against a pattern")
    p_verify.add_argument("pattern", choices=["identity", "triangular", "isolation"])
    p_verify.add_argument("input", help="family JSON or matrix text file")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="brute-force maximum structure search")
    p_search.add_argument("kind", choices=["isolation", "identity", "triangular"])
    p_search.add_argument("--k", type=int)
    p_search.add_argument("--t", type=int)
    p_search.add_argument("--a", type=int)
    p_search.add_argument("--b", type=int)
    p_search.add_argument("--max-nodes", type=_positive_int, default=10_000_000)
    p_search.add_argument("--witness-out", help="write the witness family as JSON")
    p_search.set_defaults(func=_cmd_search)

    p_rank = sub.add_parser("rank", help="exact Boolean rank (minimum biclique cover)")
    p_rank.add_argument("input", nargs="?", help="matrix text or family JSON file")
    p_rank.add_argument("--gen-A", nargs=2, type=int, metavar=("K", "T"),
                        help="rank the full intersection matrix for (K, T)")
    p_rank.add_argument("--max-nodes", type=_positive_int, default=10_000_000)
    p_rank.add_argument("--max-bicliques", type=_positive_int, default=50_000)
    p_rank.set_defaults(func=_cmd_rank)

    p_table = sub.add_parser("table", help="isolation sizes per k, with optional oracle column")
    p_table.add_argument("--t", type=int, required=True)
    p_table.add_argument("--k-range", required=True, help="inclusive range LO..HI")
    p_table.add_argument("--oracle", action="store_true")
    p_table.add_argument("--max-nodes", type=_positive_int, default=10_000_000)
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
