"""Command-line interface: parsing, edge-list IO, end-to-end commands."""

import networkx as nx
import pytest

from repro.cli import main, read_edge_list_csr, write_edge_list
from repro.graphs import CSR_FAMILY_BUILDERS


def weight_of(graph, a, b):
    return graph.edge_weight(graph.index_of(a), graph.index_of(b))


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=3)
        graph.add_edge("b", "c", weight=7)
        path = tmp_path / "g.txt"
        with open(path, "w") as handle:
            write_edge_list(graph, handle)
        loaded = read_edge_list_csr(str(path))
        assert loaded.number_of_edges() == 2
        assert weight_of(loaded, "a", "b") == 3
        assert weight_of(loaded, "b", "c") == 7

    def test_default_weight_and_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n1 2\n2 3 9  # inline\n\n")
        graph = read_edge_list_csr(str(path))
        assert weight_of(graph, "1", "2") == 1
        assert weight_of(graph, "2", "3") == 9

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(ValueError):
            read_edge_list_csr(str(path))


class TestEdgeFileErrors:
    """A bad ``--edges`` file exits non-zero with one line, no traceback."""

    def assert_one_line_exit(self, argv, *fragments):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and message  # non-zero exit
        assert "\n" not in message and "Traceback" not in message
        for fragment in fragments:
            assert fragment in message

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        self.assert_one_line_exit(
            ["mincut", "--edges", str(path)], str(path), "No such file"
        )

    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b 1\nlonely\n")
        self.assert_one_line_exit(
            ["mincut", "--edges", str(path)], f"{path}:2", "u v [weight]"
        )

    def test_non_integer_weight(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b 1.5\n")
        self.assert_one_line_exit(
            ["mincut", "--edges", str(path)], f"{path}:1", "'1.5'", "integer"
        )


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(CSR_FAMILY_BUILDERS))
    def test_all_families_generate_connected(self, family):
        graph = CSR_FAMILY_BUILDERS[family](24, 1)
        assert graph.is_connected()
        assert graph.number_of_nodes() >= 4


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2022" in out

    def test_mincut_generated_family(self, capsys):
        assert main(
            ["mincut", "--family", "gnm", "--n", "18", "--seed", "2",
             "--solver", "oracle", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "min-cut value" in out
        assert "CONGEST" in out

    def test_mincut_matches_reference(self, tmp_path, capsys):
        from repro.graphs import random_connected_gnm

        graph = random_connected_gnm(16, 34, seed=5)
        path = tmp_path / "g.txt"
        with open(path, "w") as handle:
            write_edge_list(graph, handle)
        assert main(["mincut", "--edges", str(path), "--solver", "oracle"]) == 0
        out = capsys.readouterr().out
        expected, _ = nx.stoer_wagner(graph)
        assert f"min-cut value : {float(expected)}" in out

    def test_generate_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "cycle.txt"
        assert main(
            ["generate", "--family", "cycle", "--n", "12", "--out", str(out_path)]
        ) == 0
        graph = read_edge_list_csr(str(out_path))
        assert graph.number_of_edges() == 12

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["mincut", "--family", "hypercube-of-doom"])
