"""Acceptance criteria, one test per criterion.

Every expected value is an exact integer (tolerance zero); each criterion
also carries a time ceiling, asserted here: wall-clock time, except for
the CLI children of criterion 1, which are held to their CPU time.  Run with
``pytest tests/test_acceptance.py -v`` for one pass/fail line per criterion.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from isoset import (
    BoolMatrix,
    FamilyPair,
    boolean_rank_exact,
    build_A,
    circulant_isolation,
    cover_to_factors,
    family_to_json,
    family_to_matrix,
    identity_family,
    isolation_3t2,
    isolation_construct,
    max_identity_bruteforce,
    max_isolation_bruteforce,
    max_triangular_bruteforce,
    triangular_family,
    verify_identity,
    verify_identity_decomposition,
    verify_isolation,
    verify_matrix_isolation,
    verify_triangular,
)
from isoset.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

K12_T4_REFERENCE_ROWS = [
    (1, 8, 9, 10), (2, 8, 9, 10), (3, 8, 9, 10), (4, 8, 9, 10), (5, 8, 9, 10),
    (6, 8, 9, 10), (7, 8, 9, 10), (8, 9, 10, 11), (8, 10, 11, 12),
    (7, 8, 11, 12), (7, 8, 9, 12),
]
K12_T4_REFERENCE_COLS = [
    (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7), (1, 5, 6, 7),
    (1, 2, 6, 7), (1, 2, 3, 7), (1, 2, 3, 9), (1, 2, 3, 10), (1, 2, 3, 11),
    (1, 2, 3, 12),
]


def cli(*argv: str) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "isoset.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def children_cpu_s() -> float:
    """User plus system CPU time of every waited-for child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_criterion_1_reference_grids():
    # each child is timed by its own CPU time, which other load on the
    # machine does not stretch the way it stretches wall-clock time
    for argv, fixture in [
        (("construct", "circulant", "--p", "5", "--q", "4"), "circulant_5_4.txt"),
        (("construct", "isolation", "--k", "12", "--t", "4", "--format", "grid"), "isolation_k12_t4.txt"),
        (("construct", "isolation", "--k", "11", "--t", "3", "--format", "grid"), "isolation_k11_t3.txt"),
    ]:
        start = children_cpu_s()
        code, out = cli(*argv)
        elapsed = children_cpu_s() - start
        assert code == 0
        assert out == (GOLDEN / fixture).read_text(), argv
        assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s of CPU time"
    # the size-11 family at (12, 4) also pins its row and column index lists
    code, out = cli("construct", "isolation", "--k", "12", "--t", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [tuple(r) for r in doc["rows"]] == K12_T4_REFERENCE_ROWS
    assert [tuple(c) for c in doc["cols"]] == K12_T4_REFERENCE_COLS
    print("criterion 1 PASS: reference grids and index lists reproduced bit-exactly")


def test_criterion_2_identity_maxima():
    start = time.perf_counter()
    for k, t in [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3), (7, 3)]:
        result = max_identity_bruteforce(k, t)
        assert result.complete, (k, t)
        assert result.optimum == k - 2 * t + 2, (k, t, result.optimum)
    for t in range(1, 7):
        for k in range(2 * t, 2 * t + 15):
            fp = identity_family(k, t)
            assert fp.size == k - 2 * t + 2
            assert verify_identity(fp).ok, (k, t)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: identity maxima equal k-2t+2 ({elapsed:.1f}s)")


def test_criterion_3_isolation_sizes():
    start = time.perf_counter()
    for t in range(2, 9):
        for k in range(2 * t, 4 * t + 11):
            fp = isolation_construct(k, t)
            want = 2 * (k - 2 * t) + 3 if k <= 4 * t - 3 else k
            assert fp.size == want, (k, t, fp.size)
            assert verify_isolation(fp).ok, (k, t)
    code, out = cli("table", "--t", "2", "--k-range", "4..9")
    assert code == 0
    sizes = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert sizes == ["3", "5", "6", "7", "8", "9"]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 3 PASS: isolation sizes match 2r+3 then k ({elapsed:.1f}s)")


def test_criterion_4_isolation_maxima_at_2t_plus_1():
    start = time.perf_counter()
    result = max_isolation_bruteforce(5, 2)
    assert result.complete and result.optimum == 5
    assert verify_isolation(result.witness).ok
    result = max_isolation_bruteforce(4, 2)
    assert result.complete and result.optimum == 3
    assert verify_isolation(result.witness).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"criterion 4 PASS: isolation maxima 5 at (5,2) and 3 at (4,2) ({elapsed:.1f}s)")


def test_criterion_5_triangular_maxima():
    start = time.perf_counter()
    result = max_triangular_bruteforce(2, 2, 8)
    assert result.complete and result.optimum == 5
    for a in range(1, 5):
        for b in range(1, 5):
            fp = triangular_family(a, b)
            assert fp.size == comb(a + b, a) - 1, (a, b)
            assert verify_triangular(fp).ok, (a, b)
    assert triangular_family(3, 3).size == 19
    for n in range(1, 6):
        assert triangular_family(n, 1).size == n
        assert triangular_family(1, n).size == n
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"criterion 5 PASS: triangular sizes (a+b choose a)-1, maximum 5 at t=2 ({elapsed:.1f}s)")


def test_criterion_6_boolean_rank():
    start = time.perf_counter()
    assert boolean_rank_exact(build_A(4, 2)).optimum == 4
    assert boolean_rank_exact(build_A(5, 2)).optimum == 5
    for n in range(1, 7):
        result = boolean_rank_exact(BoolMatrix.identity(n))
        assert result.complete and result.optimum == n
        x, y = cover_to_factors(result.witness, n, n)
        cert = verify_identity_decomposition(x, y)
        assert cert.ok, cert.notes
        r = result.optimum
        ones = x.count_ones() + y.count_ones()
        assert ones <= 2 * n + (r - n) * n
    assert boolean_rank_exact(circulant_isolation(5, 4)).optimum == 9
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"criterion 6 PASS: ranks 4, 5, n, 9 with valid identity decompositions ({elapsed:.1f}s)")


def test_criterion_7_cross_view_consistency():
    start = time.perf_counter()
    rng = random.Random(20260807)
    checked = 0
    while checked < 200:
        universe = rng.randint(2, 10)
        a = rng.randint(1, min(3, universe))
        b = rng.randint(1, min(3, universe))
        n = rng.randint(1, 6)
        rows = [tuple(sorted(rng.sample(range(1, universe + 1), a))) for _ in range(n)]
        cols = [tuple(sorted(rng.sample(range(1, universe + 1), b))) for _ in range(n)]
        fp = FamilyPair.from_elements(rows, cols, universe)
        assert verify_isolation(fp).ok == verify_matrix_isolation(family_to_matrix(fp)).ok
        checked += 1
    for t in range(2, 7):
        for k in range(3 * t - 2, 3 * t + 7):
            assert family_to_matrix(isolation_3t2(k, t)) == circulant_isolation(t, k - 2 * t + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 7 PASS: 200 families agree across views; circulant factorization exact ({elapsed:.1f}s)")


def _determinism_transcript(tmp_path: Path, tag: str) -> str:
    """Everything observable from one pass over the deterministic surface."""
    chunks = []
    for k, t in [(12, 4), (11, 3), (6, 3), (4, 2), (3, 2)]:
        chunks.append(family_to_json(isolation_construct(k, t)))
    chunks.append(family_to_json(triangular_family(3, 3)))
    chunks.append(family_to_json(identity_family(8, 2)))
    for k, t in [(4, 2), (5, 2), (6, 2)]:
        result = max_isolation_bruteforce(k, t)
        chunks.append(f"iso {k} {t} {result.optimum} {result.nodes_explored}\n")
        chunks.append(family_to_json(result.witness))
    result = max_triangular_bruteforce(2, 2, 8)
    chunks.append(f"tri {result.optimum} {result.nodes_explored}\n")
    result = boolean_rank_exact(build_A(4, 2))
    chunks.append(f"rank {result.optimum} {result.nodes_explored} {result.witness}\n")
    for argv in [
        ("construct", "isolation", "--k", "11", "--t", "3"),
        ("construct", "circulant", "--p", "5", "--q", "4"),
        ("table", "--t", "4", "--k-range", "8..13"),
    ]:
        code, out = cli(*argv)
        chunks.append(f"cli {argv} -> {code}\n{out}")
    out_path = tmp_path / f"witness-{tag}.json"
    code = main(["search", "isolation", "--k", "5", "--t", "2", "--witness-out", str(out_path)])
    chunks.append(f"search-exit {code}\n")
    chunks.append(out_path.read_text())
    return "".join(chunks)


def test_criterion_8_determinism(tmp_path, capsys):
    first = _determinism_transcript(tmp_path, "a")
    second = _determinism_transcript(tmp_path, "b")
    capsys.readouterr()  # swallow in-process CLI prints
    assert first == second
    print("criterion 8 PASS: consecutive runs byte-identical, node counts equal")
