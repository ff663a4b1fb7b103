"""CLI verbs, exit codes, golden grids, and output determinism."""

import json


from isoset import family_from_json, verify_isolation
from isoset.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_zero_pair_document(path):
    doc = {"schema_version": 1, "meta": {}, "universe": 4, "row_size": 2,
           "col_size": 2, "rows": [], "cols": []}
    path.write_text(json.dumps(doc))


class TestConstruct:
    def test_circulant_reference_grid(self, capsys, golden_dir):
        code, out = run(capsys, "construct", "circulant", "--p", "5", "--q", "4")
        assert code == 0
        assert out == (golden_dir / "circulant_5_4.txt").read_text()

    def test_isolation_reference_grids(self, capsys, golden_dir):
        for k, t, fixture in [(12, 4, "isolation_k12_t4.txt"), (11, 3, "isolation_k11_t3.txt")]:
            code, out = run(
                capsys, "construct", "isolation", "--k", str(k), "--t", str(t),
                "--format", "grid",
            )
            assert code == 0
            assert out == (golden_dir / fixture).read_text()

    def test_default_format_emits_both(self, capsys):
        code, out = run(capsys, "construct", "isolation", "--k", "12", "--t", "4")
        assert code == 0
        json_part, _, grid_part = out.partition("\n11 11\n")
        doc = json.loads(json_part)
        assert doc["universe"] == 12
        assert len(grid_part.splitlines()) == 11

    def test_small_k_single_pair(self, capsys):
        code, out = run(capsys, "construct", "isolation", "--k", "3", "--t", "2")
        assert code == 0
        assert json.loads(out.partition("\n1 1\n")[0])["rows"] == [[1, 2]]

    def test_json_matches_library(self, capsys):
        code, out = run(
            capsys, "construct", "identity", "--k", "6", "--t", "2", "--format", "json"
        )
        assert code == 0
        from isoset import identity_family

        assert family_from_json(out) == identity_family(6, 2)

    def test_triangular_compacted(self, capsys):
        code, out = run(
            capsys, "construct", "triangular", "--a", "2", "--b", "2", "--format", "json"
        )
        assert code == 0
        fp = family_from_json(out)
        assert fp.size == 5
        used = {e for s in fp.rows + fp.cols for e in s.elements()}
        assert used == set(range(1, fp.universe + 1))

    def test_range_error_exit_2(self, capsys):
        for argv in [
            ("construct", "identity", "--k", "3", "--t", "2"),
            ("construct", "triangular", "--a", "10", "--b", "10"),  # over the size cap
        ]:
            code, _ = run(capsys, *argv)
            assert code == 2, argv

    def test_missing_params_exit_2(self, capsys):
        code, _ = run(capsys, "construct", "identity", "--k", "6")
        assert code == 2

    def test_circulant_json_refused(self, capsys):
        code, _ = run(capsys, "construct", "circulant", "--p", "2", "--q", "1",
                      "--format", "json")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        code, _ = run(capsys, "construct", "identity", "--k", "6", "--t", "2",
                      "--format", "json", "--out", str(path))
        assert code == 0
        from isoset import identity_family

        assert family_from_json(path.read_text()) == identity_family(6, 2)


class TestVerify:
    def test_family_ok(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        run(capsys, "construct", "isolation", "--k", "12", "--t", "4",
            "--format", "json", "--out", str(path))
        code, out = run(capsys, "verify", "isolation", str(path))
        assert code == 0 and out.strip() == "ok"

    def test_wrong_pattern_exit_1_lists_violations(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        run(capsys, "construct", "identity", "--k", "6", "--t", "2",
            "--format", "json", "--out", str(path))
        code, out = run(capsys, "verify", "triangular", str(path))
        assert code == 1
        lines = out.strip().splitlines()
        assert "2 1 0 1" in lines  # a zero below the diagonal
        assert all(len(line.split()) == 4 for line in lines)

    def test_matrix_document(self, capsys, tmp_path, golden_dir):
        path = tmp_path / "fig1.txt"
        path.write_text((golden_dir / "circulant_5_4.txt").read_text())
        code, _ = run(capsys, "verify", "isolation", str(path))
        assert code == 0

    def test_parse_error_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("3 3\n101\n")
        code, _ = run(capsys, "verify", "isolation", str(path))
        assert code == 3

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _ = run(capsys, "verify", "isolation", str(tmp_path / "nope"))
        assert code == 3

    def test_zero_pair_document_exit_3(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        write_zero_pair_document(path)
        code = main(["verify", "isolation", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "at least one pair" in captured.err


class TestSearch:
    def test_isolation_5_2(self, capsys):
        code, out = run(capsys, "search", "isolation", "--k", "5", "--t", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "5"
        assert lines[1].startswith("nodes ")

    def test_identity_6_2(self, capsys):
        code, out = run(capsys, "search", "identity", "--k", "6", "--t", "2")
        assert code == 0
        assert out.strip().splitlines()[0] == "4"

    def test_triangular_2_2_8(self, capsys):
        code, out = run(capsys, "search", "triangular", "--a", "2", "--b", "2", "--k", "8")
        assert code == 0
        assert out.strip().splitlines()[0] == "5"

    def test_witness_file(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, out = run(capsys, "search", "isolation", "--k", "5", "--t", "2",
                        "--witness-out", str(path))
        assert code == 0
        witness = family_from_json(path.read_text())
        assert witness.size == 5
        assert verify_isolation(witness).ok

    def test_incomplete_exit_4(self, capsys):
        code, out = run(capsys, "search", "isolation", "--k", "7", "--t", "3",
                        "--max-nodes", "3")
        assert code == 4
        assert out.startswith(">= ")

    def test_missing_params_exit_2(self, capsys):
        code, _ = run(capsys, "search", "isolation", "--k", "5")
        assert code == 2

    def test_triangular_one_node_budget_writes_one_pair(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, out = run(capsys, "search", "triangular", "--a", "2", "--b", "2", "--k", "4",
                        "--max-nodes", "1", "--witness-out", str(path))
        assert code == 4
        assert out.splitlines()[0] == ">= 1"
        code, out = run(capsys, "verify", "triangular", str(path))
        assert code == 0 and out.strip() == "ok"

    def test_zero_max_nodes_exit_2(self, capsys):
        code = main(["search", "isolation", "--k", "5", "--t", "2", "--max-nodes", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--max-nodes" in err

    def test_non_integer_max_dim_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "lots")
        code = main(["search", "isolation", "--k", "5", "--t", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "ISOSET_MAX_DIM" in err


class TestRank:
    def test_gen_A_5_2(self, capsys):
        code, out = run(capsys, "rank", "--gen-A", "5", "2")
        assert code == 0
        assert out.splitlines()[0] == "rank 5"

    def test_identity_adds_decomposition_certificate(self, capsys, tmp_path):
        path = tmp_path / "id4.txt"
        path.write_text("4 4\n1000\n0100\n0010\n0001\n")
        code, out = run(capsys, "rank", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank 4"
        assert "decomposition ok" in lines

    def test_circulant_rank(self, capsys, tmp_path, golden_dir):
        path = tmp_path / "fig1.txt"
        path.write_text((golden_dir / "circulant_5_4.txt").read_text())
        code, out = run(capsys, "rank", str(path))
        assert code == 0
        assert out.splitlines()[0] == "rank 9"

    def test_family_document_input(self, capsys, tmp_path):
        # an isolation family realizes an isolation matrix, which has full rank
        path = tmp_path / "fam.json"
        run(capsys, "construct", "isolation", "--k", "12", "--t", "4",
            "--format", "json", "--out", str(path))
        code, out = run(capsys, "rank", str(path))
        assert code == 0
        assert out.splitlines()[0] == "rank 11"

    def test_incomplete_prints_interval_exit_4(self, capsys):
        code, out = run(capsys, "rank", "--gen-A", "4", "2", "--max-nodes", "1")
        assert code == 4
        assert out.splitlines()[0].startswith("rank in [")

    def test_parse_error_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("oops")
        code, _ = run(capsys, "rank", str(path))
        assert code == 3

    def test_zero_pair_document_exit_3(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        write_zero_pair_document(path)
        code = main(["rank", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and "at least one pair" in captured.err

    def test_no_input_exit_2(self, capsys):
        code, _ = run(capsys, "rank")
        assert code == 2

    def test_zero_max_bicliques_exit_2(self, capsys):
        code = main(["rank", "--gen-A", "4", "2", "--max-bicliques", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--max-bicliques" in err


class TestTable:
    def test_t2_sizes(self, capsys):
        code, out = run(capsys, "table", "--t", "2", "--k-range", "4..9")
        assert code == 0
        sizes = [line.split()[1] for line in out.strip().splitlines()[1:]]
        assert sizes == ["3", "5", "6", "7", "8", "9"]

    def test_t4_sizes(self, capsys):
        code, out = run(capsys, "table", "--t", "4", "--k-range", "8..13")
        assert code == 0
        sizes = [line.split()[1] for line in out.strip().splitlines()[1:]]
        assert sizes == ["3", "5", "7", "9", "11", "13"]

    def test_t1_sizes(self, capsys):
        code, out = run(capsys, "table", "--t", "1", "--k-range", "3..5")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [line.split()[1] for line in rows] == ["3", "4", "5"]
        assert all(line.split()[2] == "singletons" for line in rows)

    def test_oracle_column(self, capsys):
        code, out = run(capsys, "table", "--t", "2", "--k-range", "4..5", "--oracle")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["3", "5"]
        assert all(r[4] == "yes" for r in rows)

    def test_oracle_column_budget_exhaustion(self, capsys):
        code, out = run(capsys, "table", "--t", "3", "--k-range", "7..7",
                        "--oracle", "--max-nodes", "3")
        assert code == 0
        row = out.strip().splitlines()[1].split()
        assert row[3].startswith(">=")
        assert row[4] == "no"

    def test_bad_range_exit_2(self, capsys):
        code, _ = run(capsys, "table", "--t", "2", "--k-range", "9..4")
        assert code == 2
        code, _ = run(capsys, "table", "--t", "2", "--k-range", "x..y")
        assert code == 2


class TestDeterminism:
    def test_construct_bytes_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out = run(capsys, "construct", "isolation", "--k", "11", "--t", "3")
            outputs.add(out)
        assert len(outputs) == 1

    def test_table_bytes_identical(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out = run(capsys, "table", "--t", "3", "--k-range", "6..12")
            outputs.add(out)
        assert len(outputs) == 1

    def test_search_node_counts_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out = run(capsys, "search", "isolation", "--k", "5", "--t", "2")
            outs.append(out)
        assert outs[0] == outs[1]
