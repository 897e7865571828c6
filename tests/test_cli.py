"""End-to-end command line tests; everything runs in-process via main()."""

from pathlib import Path

import pytest

from gramsim import (graphs_isomorphic_under_map, load_graph, parse_path_map)
from gramsim.cli import main

from .conftest import entry_lines
from .test_grammar import OTHER_S

DATA = Path(__file__).parent / "data"
FIG1_EL = str(DATA / "fig1.el")
FIG1_GG = str(DATA / "fig1.gg")
CD_EL = str(DATA / "cd.el")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compress_decompress_cycle(tmp_path, capsys):
    gg_path = tmp_path / "out.gg"
    code, out, err = run(capsys, "compress", "-i", FIG1_EL, "-o", str(gg_path))
    assert code == 0 and out == ""
    assert gg_path.exists()
    map_c = tmp_path / "out.gg.map"          # default sidecar location
    assert map_c.exists()

    el_path = tmp_path / "roundtrip.el"
    map_d = tmp_path / "roundtrip.map"
    code, out, err = run(capsys, "decompress", "-i", str(gg_path),
                         "-o", str(el_path), "--map", str(map_d))
    assert code == 0

    original = load_graph(Path(FIG1_EL).read_text())
    restored = load_graph(el_path.read_text())
    to_original = parse_path_map(map_c.read_text())
    to_canonical = parse_path_map(map_d.read_text())
    mapping = {nid: to_original.node_for(path) for path, nid in to_canonical}
    assert graphs_isomorphic_under_map(restored, original, mapping)


def test_decompress_to_stdout(capsys):
    code, out, err = run(capsys, "decompress", "-i", FIG1_GG)
    assert code == 0
    assert load_graph(out) == load_graph(Path(FIG1_EL).read_text())


def test_simulate_grammar_expanded(capsys):
    code, out, err = run(capsys, "simulate", "--grammar", FIG1_GG,
                         "--pattern", CD_EL, "--expand")
    assert (code, out) == (0, "1 6\n2 7\n")


def test_simulate_grammar_suffixes(capsys):
    code, out, err = run(capsys, "simulate", "--grammar", FIG1_GG, "--pattern", CD_EL)
    assert (code, out) == (0, "1 S/3:CDCD/1:CD/1:c\n2 S/3:CDCD/1:CD/2:d\n")


def test_simulate_optimized_expands_the_same(capsys):
    _, plain, _ = run(capsys, "simulate", "--grammar", FIG1_GG,
                      "--pattern", CD_EL, "--expand")
    code, fast, _ = run(capsys, "simulate", "--grammar", FIG1_GG,
                        "--pattern", CD_EL, "--expand", "--optimized")
    assert code == 0 and fast == plain


def test_simulate_expand_prints_the_compressed_graphs_ids(tmp_path, capsys):
    graph = tmp_path / "g.el"
    graph.write_text("10 c\n20 d\n30 c\n40 d\n10 20\n20 10\n30 40\n40 30\n")
    gg_path = tmp_path / "g.gg"
    assert run(capsys, "compress", "-i", str(graph), "-o", str(gg_path))[0] == 0
    for mode in ((), ("--optimized",)):
        code, out, err = run(capsys, "simulate", "--grammar", str(gg_path),
                             "--pattern", CD_EL, "--expand", *mode)
        assert (code, out) == (0, "1 10\n1 30\n2 20\n2 40\n")


def _fig1_with_sidecar(tmp_path, capsys):
    # fig1.gg, and beside it the map of its expansion as decompress writes it
    gg_path = tmp_path / "fig1.gg"
    gg_path.write_text(Path(FIG1_GG).read_text())
    code, out, err = run(capsys, "decompress", "-i", str(gg_path),
                         "--map", str(tmp_path / "fig1.gg.map"))
    assert code == 0
    return gg_path, tmp_path / "fig1.gg.map"


def test_simulate_expand_with_incomplete_map_fails_at_parse(tmp_path, capsys):
    gg_path, map_path = _fig1_with_sidecar(tmp_path, capsys)
    # the map less one entry, written as `<path> <id>` lines, which
    # parse_path_map still reads when they list every full path
    lines = entry_lines(parse_path_map(map_path.read_text())).splitlines()
    map_path.write_text("\n".join(line for line in lines
                                   if line != "S/3:CDCD/1:CD/1:c 6") + "\n")
    code, out, err = run(capsys, "simulate", "--grammar", str(gg_path),
                         "--pattern", CD_EL, "--expand")
    assert code == 2 and out == ""
    assert err == (f"gramsim: error: {map_path}: line 8: 8 paths for the 9 full paths "
                   "the rules derive; missing S/3:CDCD/1:CD/1:c\n")


def test_simulate_expand_with_another_grammars_map_is_a_data_error(tmp_path, capsys):
    gg_path, map_path = _fig1_with_sidecar(tmp_path, capsys)
    # a complete map of fig1 with b moved to the front of S, which lacks
    # fig1's S/1 paths
    other = tmp_path / "other.gg"
    other.write_text(OTHER_S)
    assert run(capsys, "decompress", "-i", str(other), "--map", str(map_path))[0] == 0
    pattern = tmp_path / "c.el"
    pattern.write_text("1 c\n")
    code, out, err = run(capsys, "simulate", "--grammar", str(gg_path),
                         "--pattern", str(pattern), "--expand")
    assert code == 2 and out == ""
    assert f"{map_path} has no node for path S/1:CDCD/1:CD/1:c" in err


def test_a_parse_error_names_its_file(tmp_path, capsys):
    gg_path, map_path = _fig1_with_sidecar(tmp_path, capsys)
    bad_map = map_path.read_text().replace("\n2\n", "\n1\n")
    bad_el = tmp_path / "bad.el"
    bad_el.write_text("1 c\n1 d\n")
    bad_gg = tmp_path / "bad.gg"
    bad_gg.write_text("TERMINALS c d\nSTART S\nRULE S => 1-c\n")
    map_path.write_text(bad_map)
    cases = [
        (("simulate", "--grammar", str(gg_path), "--pattern", CD_EL, "--expand"),
         f"{map_path}: line 7: duplicate node id 1"),
        (("simulate", "--grammar", str(bad_gg), "--pattern", CD_EL),
         f"{bad_gg}: line 3: malformed body item '1-c'"),
        (("decompress", "-i", str(bad_gg)), f"{bad_gg}: line 3: malformed body item '1-c'"),
        (("simulate", "--grammar", FIG1_GG, "--pattern", str(bad_el)), f"{bad_el}: line 2: "),
        (("simulate", "--graph", str(bad_el), "--pattern", CD_EL), f"{bad_el}: line 2: "),
        (("compress", "-i", str(bad_el), "-o", str(tmp_path / "x.gg")), f"{bad_el}: line 2: "),
        (("gen-pattern", "--nodes", "2", "--edges", "1", "--seed", "1",
          "--from-graph", str(bad_el)), f"{bad_el}: line 2: "),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"gramsim: error: {message}")


def test_simulate_baseline_graph(capsys):
    code, out, err = run(capsys, "simulate", "--graph", FIG1_EL, "--pattern", CD_EL)
    assert (code, out) == (0, "1 6\n2 7\n")


def test_simulate_optimized_rejected_for_graph_mode(capsys):
    code, out, err = run(capsys, "simulate", "--graph", FIG1_EL,
                         "--pattern", CD_EL, "--optimized")
    assert code == 1
    assert "gramsim: error:" in err and "--grammar" in err


def test_simulate_no_match(tmp_path, capsys):
    pattern = tmp_path / "z.el"
    pattern.write_text("1 z\n")
    code, out, err = run(capsys, "simulate", "--grammar", FIG1_GG,
                         "--pattern", str(pattern))
    assert (code, out) == (0, "NO-MATCH\n")


def test_missing_file_is_a_data_error(capsys):
    code, out, err = run(capsys, "simulate", "--grammar", "/nonexistent.gg",
                         "--pattern", CD_EL)
    assert code == 2
    assert "cannot read /nonexistent.gg" in err


def test_malformed_grammar_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.gg"
    bad.write_text("TERMINALS a\nSTART S\nRULE S => 1:missing\n")
    code, out, err = run(capsys, "simulate", "--grammar", str(bad), "--pattern", CD_EL)
    assert code == 2
    assert "unknown label" in err


def test_unwritable_output_is_a_data_error(tmp_path, capsys):
    code, out, err = run(capsys, "compress", "-i", FIG1_EL, "-o", str(tmp_path))
    assert code == 2
    assert "cannot write" in err


def test_compress_min_count_validation(tmp_path, capsys):
    code, out, err = run(capsys, "compress", "-i", FIG1_EL,
                         "-o", str(tmp_path / "x.gg"), "--min-count", "1")
    assert code == 2


def test_gen_graph_deterministic(capsys):
    argv = ("gen-graph", "--base-nodes", "12", "--variations", "3", "--seed", "7")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    assert len(load_graph(first)) > 0


def test_gen_graph_rejects_bad_params(capsys):
    code, out, err = run(capsys, "gen-graph", "--base-nodes", "0",
                         "--variations", "3", "--seed", "7")
    assert code == 2
    assert "base_nodes" in err


def test_gen_pattern_from_alphabet(capsys):
    code, out, err = run(capsys, "gen-pattern", "--nodes", "4", "--edges", "5",
                         "--seed", "3", "--alphabet", "a, b")
    assert code == 0
    pattern = load_graph(out)
    assert len(pattern) == 4 and len(pattern.edges) == 5
    assert pattern.label_set() <= {"a", "b"}


def test_gen_pattern_from_graph(capsys):
    code, out, err = run(capsys, "gen-pattern", "--nodes", "3", "--edges", "3",
                         "--seed", "3", "--from-graph", FIG1_EL)
    assert code == 0
    assert load_graph(out).label_set() <= {"b", "c", "d"}


def test_gen_pattern_rejects_digit_labels(capsys):
    code, out, err = run(capsys, "gen-pattern", "--nodes", "3", "--edges", "3",
                         "--seed", "3", "--alphabet", "a,12")
    assert code == 2
    assert "invalid alphabet" in err


def test_gen_pattern_marks_disconnected_output(capsys):
    code, out, err = run(capsys, "gen-pattern", "--nodes", "5", "--edges", "2",
                         "--seed", "3", "--alphabet", "a")
    assert code == 0
    assert out.startswith("# disconnected:")


def test_bench_writes_csv_and_progress(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "base_nodes = 8\nvariations = 2\nseeds = 1, 2\nrepetitions = 1\n"
        "pattern_nodes = 3\npattern_edges = 3\ndelete_fraction = 0.25\n"
        "edges_per_node = 1.0\nlabel_alphabet = 2\n")
    code, out, err = run(capsys, "bench", "--config", str(config))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("graphindex,")
    assert len(lines) == 3
    assert "timing" in err


def test_bench_seed_override(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "base_nodes = 8\nvariations = 2\nseeds = 1, 2\nrepetitions = 1\n"
        "pattern_nodes = 3\npattern_edges = 3\ndelete_fraction = 0.25\n"
        "edges_per_node = 1.0\nlabel_alphabet = 2\n")
    code, out, err = run(capsys, "bench", "--config", str(config), "--seed", "2")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == 1
    assert rows[0].split(",")[header.split(",").index("seed")] == "2"


def test_bench_rejects_repetitions_below_one_before_generating(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("base_nodes = 8\nvariations = 2\nseeds = 1\n")
    for value in ("0", "-3"):
        code, out, err = run(capsys, "bench", "--config", str(config),
                             "--repetitions", value)
        assert code == 1
        assert out == ""
        assert "--repetitions must be at least 1" in err
        assert "generating" not in err


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "simulate", "--pattern", CD_EL)[0] == 1
    assert run(capsys, "--help")[0] == 0
