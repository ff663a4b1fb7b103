"""The four workloads: task lists, seeded inputs, and the library calls each task makes.

Every call into ``isoset`` goes through ``call(fn, *args)`` so that a tracer
can put a span around it; with tracing off ``call`` is a plain call.  A
task returns an ``Outcome``: the answer, the interval it proves, the node
count, the library verifier's verdict and the witness documents.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import comb

from isoset import (
    BoolMatrix,
    RankBudget,
    Subset,
    boolean_rank_exact,
    build_A,
    circulant_isolation,
    compat_graph,
    cover_to_factors,
    family_from_json,
    family_to_json,
    family_to_matrix,
    fooling_lower_bound,
    identity_family,
    isolation_construct,
    isolation_size,
    matrix_from_text,
    matrix_to_text,
    max_identity_bruteforce,
    max_isolation_bruteforce,
    triangular_family,
    verify_identity,
    verify_isolation,
    verify_matrix_identity,
    verify_matrix_isolation,
    verify_matrix_triangular,
    verify_triangular,
)
from isoset.core import realize

import checks

CLIQUE_BUDGET = 40_000
RANK_BUDGET = 1_000_000
PROBE_BUDGET = RankBudget(max_nodes=1)

# Optima the exhaustive search proves; (8, 2) stops early and 8 = k is the
# known optimum (isolation size <= Boolean rank <= k through element stars).
ISOLATION_OPTIMA = {(6, 2): 6, (6, 3): 3, (7, 2): 7, (7, 3): 5, (8, 2): 8}
IDENTITY_CASES = ((10, 2), (8, 3), (9, 3))
CONSTRUCT_T = range(2, 9)
TRIANGULAR_CASES = ((5, 5), (7, 6))
A_CASE = (16, 4)

_SEARCH = {
    "isolation-search": (max_isolation_bruteforce, verify_isolation, verify_matrix_isolation),
    "identity-search": (max_identity_bruteforce, verify_identity, verify_matrix_identity),
}
_CONSTRUCT = {
    "isolation": (isolation_construct, verify_isolation, verify_matrix_isolation),
    "identity": (identity_family, verify_identity, verify_matrix_identity),
    "triangular": (triangular_family, verify_triangular, verify_matrix_triangular),
}


@dataclass
class Task:
    id: str
    kind: str
    params: tuple
    known: int
    matrix: BoolMatrix | None = None


@dataclass
class Outcome:
    value: int
    lower: int
    upper: int
    nodes: int
    complete: bool
    library_ok: bool
    witness: tuple[str, ...]
    counts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.digest = hashlib.sha256("\0".join(self.witness).encode()).hexdigest()

    @property
    def certified(self) -> bool:
        """Proved: a complete search, or a construction its verifier accepts."""
        return self.complete and self.library_ok

    def signature(self) -> tuple:
        return (self.value, self.lower, self.upper, self.nodes, self.complete, self.digest)


def j_minus_i(n: int) -> BoolMatrix:
    full = (1 << n) - 1
    return BoolMatrix(n, n, tuple(full & ~(1 << i) for i in range(n)))


def permute(m: BoolMatrix, rng: random.Random) -> BoolMatrix:
    """Rows and columns of m in a random order; the Boolean rank is unchanged."""
    row_order = list(range(m.n_rows))
    col_order = list(range(m.n_cols))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    rows = []
    for i in row_order:
        mask = 0
        for new, old in enumerate(col_order):
            mask |= (m.rows[i] >> old & 1) << new
        rows.append(mask)
    return BoolMatrix(m.n_rows, m.n_cols, tuple(rows))


def _rank_tasks(call) -> list[Task]:
    out = []

    def add(name: str, known: int, m: BoolMatrix) -> None:
        out.append(Task(f"rank:{name}", "rank", (), known, m))

    for k in range(4, 8):
        add(f"A({k},2)", k, call(build_A, k, 2))
    for p, q in ((5, 4), (6, 5), (7, 6)):
        add(f"circulant({p},{q})", p + q, call(circulant_isolation, p, q))
    for q, rank in ((3, 7), (4, 8)):
        add(f"circulant(6,{q},small_q)", rank, call(circulant_isolation, 6, q, allow_small_q=True))
    add("I_12", 12, BoolMatrix.identity(12))
    for k, t in ((11, 3), (12, 4)):
        add(f"isolation_construct({k},{t})", 11,
            call(family_to_matrix, call(isolation_construct, k, t)))
    add("triangular(3,3)", 19, call(family_to_matrix, call(triangular_family, 3, 3)))
    for n in range(6, 10):
        add(f"J_{n}-I_{n}", checks.de_caen_rank(n), j_minus_i(n))
    add("A(6,3)", 6, call(build_A, 6, 3))
    return out


def build_tasks(workload: str, seed: int, call) -> list[Task]:
    """The workload's inputs.  Seed 0 is canonical; any other seed permutes
    the task order and the rows and columns of every rank-cover matrix."""
    if workload == "isolation-search":
        tasks = [Task(f"max_isolation({k},{t})", workload, (k, t), opt)
                 for (k, t), opt in ISOLATION_OPTIMA.items()]
    elif workload == "identity-search":
        tasks = [Task(f"max_identity({k},{t})", workload, (k, t), checks.identity_closed_form(k, t))
                 for k, t in IDENTITY_CASES]
    elif workload == "rank-cover":
        tasks = _rank_tasks(call)
    elif workload == "construct-certify":
        tasks = []
        for t in CONSTRUCT_T:
            for k in range(2 * t, 4 * t + 4):
                tasks.append(Task(f"isolation({k},{t})", "isolation", (k, t),
                                  checks.isolation_closed_form(k, t)))
                tasks.append(Task(f"identity({k},{t})", "identity", (k, t),
                                  checks.identity_closed_form(k, t)))
        for a, b in TRIANGULAR_CASES:
            tasks.append(Task(f"triangular({a},{b})", "triangular", (a, b),
                              checks.triangular_closed_form(a, b)))
        tasks.append(Task("build_A(%d,%d)" % A_CASE, "build-A", A_CASE, comb(*A_CASE)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        for task in tasks:
            if task.matrix is not None:
                task.matrix = permute(task.matrix, random.Random(f"{seed}/{task.id}"))
        random.Random(seed).shuffle(tasks)
    return tasks


def _run_search(task: Task, call) -> Outcome:
    k, t = task.params
    search, family_check, matrix_check = _SEARCH[task.kind]
    res = call(search, k, t, RankBudget(max_nodes=CLIQUE_BUDGET))
    fp = res.witness
    m = call(family_to_matrix, fp)
    family_ok = call(family_check, fp).ok
    matrix_ok = call(matrix_check, m).ok
    doc = call(family_to_json, fp)
    # an isolation (or identity) set of A(k, t) has at most k entries
    upper = res.optimum if res.complete else k
    n = fp.size
    return Outcome(res.optimum, res.optimum, upper, res.nodes_explored, res.complete,
                   family_ok and matrix_ok, (doc,),
                   {"verify.entries": 2 * n * n, "serialize.bytes": len(doc)})


def _run_rank(task: Task, call) -> Outcome:
    m = task.matrix
    res = call(boolean_rank_exact, m, RankBudget(max_nodes=RANK_BUDGET))
    x, y = call(cover_to_factors, res.witness, m.n_rows, m.n_cols)
    r = x.n_cols
    # the factors as an intersection representation: row i gets the set of
    # rectangles holding it, column j likewise; their pattern must be m
    realized = call(realize, [Subset(r, mask) for mask in x.rows],
                    [Subset(r, mask) for mask in y.transpose().rows])
    text = call(matrix_to_text, x) + "\n" + call(matrix_to_text, y)
    lower = res.optimum if res.complete else res.lower_bound
    return Outcome(res.optimum, lower, res.optimum, res.nodes_explored, res.complete,
                   realized == m, (text,), {"serialize.bytes": len(text)})


def _run_construct(task: Task, call) -> Outcome:
    construct, family_check, matrix_check = _CONSTRUCT[task.kind]
    fp = call(construct, *task.params)
    m = call(family_to_matrix, fp)
    family_ok = call(family_check, fp).ok
    matrix_ok = call(matrix_check, m).ok
    doc = call(family_to_json, fp)
    grid = call(matrix_to_text, m)
    family_back = call(family_from_json, doc)
    matrix_back = call(matrix_from_text, grid)
    ok = family_ok and matrix_ok and family_back == fp and matrix_back == m
    n = fp.size
    return Outcome(n, n, n, 0, True, ok, (doc, grid),
                   {"construct.pairs": n, "verify.entries": 2 * n * n,
                    "serialize.bytes": len(doc) + len(grid)})


def _run_build_A(task: Task, call) -> Outcome:
    m = call(build_A, *task.params)
    grid = call(matrix_to_text, m)
    ok = call(matrix_from_text, grid) == m
    return Outcome(m.n_rows, m.n_rows, m.n_rows, 0, True, ok, (grid,),
                   {"serialize.bytes": len(grid)})


_RUNNERS = {
    "isolation-search": _run_search,
    "identity-search": _run_search,
    "rank": _run_rank,
    "isolation": _run_construct,
    "identity": _run_construct,
    "triangular": _run_construct,
    "build-A": _run_build_A,
}


def run_task(task: Task, call) -> Outcome:
    return _RUNNERS[task.kind](task, call)


def probe(task: Task, call) -> dict:
    """Side calls that split an oracle call into its stages (traced runs only).

    A search task gets a standalone ``compat_graph`` and the same search with
    a one-node budget; a rank task gets ``boolean_rank_exact`` with a
    one-node budget and a standalone ``fooling_lower_bound``.  Returns counts.
    """
    if task.kind in _SEARCH:
        k, t = task.params
        graph = call(compat_graph, k, t, identity=task.kind == "identity-search")
        call(_SEARCH[task.kind][0], k, t, PROBE_BUDGET)
        return {"oracle.compat_vertices": len(graph.vertices),
                "oracle.compat_edges": sum(a.bit_count() for a in graph.adjacency) // 2}
    if task.kind == "rank":
        call(boolean_rank_exact, task.matrix, PROBE_BUDGET)
        return {"oracle.fooling_bound_sum": call(fooling_lower_bound, task.matrix),
                "oracle.known_rank_sum": task.known}
    return {}


def grid_rows(m: BoolMatrix) -> list[str]:
    return ["".join("1" if mask >> j & 1 else "0" for j in range(m.n_cols)) for mask in m.rows]


def check_outcome(task: Task, out: Outcome) -> list[str]:
    """Compare one answer with its known value and re-check its witness."""
    problems = checks.bracket(task.known, out.lower, out.upper)
    if out.complete and out.value != task.known:
        problems.append(f"complete answer {out.value} != known {task.known}")
    if not out.library_ok:
        problems.append("the library's verifier or round trip rejected the output")
    if task.kind in _SEARCH:
        k, t = task.params
        pattern = "isolation" if task.kind == "isolation-search" else "identity"
        problems += checks.check_family_doc(out.witness[0], pattern, out.value, k, t, t)
    elif task.kind == "rank":
        problems += checks.check_cover(out.witness[0], grid_rows(task.matrix), out.value)
    elif task.kind == "build-A":
        problems += checks.check_A_text(out.witness[0], *task.params)
    else:
        if task.kind == "isolation" and isolation_size(*task.params) != task.known:
            problems.append("isolation_size disagrees with the closed form")
        problems += checks.check_family_doc(out.witness[0], task.kind, task.known,
                                            grid=out.witness[1])
    return problems


GOLDEN_GRIDS = {
    "isolation_k11_t3.txt": lambda call: call(family_to_matrix, call(isolation_construct, 11, 3)),
    "isolation_k12_t4.txt": lambda call: call(family_to_matrix, call(isolation_construct, 12, 4)),
    "circulant_5_4.txt": lambda call: call(circulant_isolation, 5, 4),
}


def golden_problems(golden_dir, call) -> list[str]:
    """The reference grids must match the checked-in golden files byte for byte."""
    problems = []
    for name, make in GOLDEN_GRIDS.items():
        path = golden_dir / name
        if not path.is_file():
            problems.append(f"golden file {name} is missing")
        elif call(matrix_to_text, make(call)).encode() != path.read_bytes():
            problems.append(f"grid differs from golden file {name}")
    return problems
