import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gramsim import (BenchConfig, BenchConfigError, BenchMismatchError,
                     BenchRecord, parse_config, run_bench, to_csv)
from gramsim.bench import CSV_HEADER

from .conftest import corrupt_line

TINY = BenchConfig(base_nodes=8, variations=(2, 3), delete_fraction=0.25,
                   edges_per_node=1.0, label_alphabet=2, pattern_nodes=3,
                   pattern_edges=3, seeds=(1, 2), repetitions=2)


def test_parse_config_full():
    text = """
    # sweep description
    base_nodes = 20
    variations = 2, 4, 8   # three sizes
    delete_fraction = 0.1
    edges_per_node = 1.5
    label_alphabet = 3
    pattern_nodes = 4
    pattern_edges = 5
    seeds = 7,8
    repetitions = 3
    optimized = false
    min_count = 4
    """
    c = parse_config(text)
    assert c == BenchConfig(base_nodes=20, variations=(2, 4, 8),
                            delete_fraction=0.1, edges_per_node=1.5,
                            label_alphabet=3, pattern_nodes=4, pattern_edges=5,
                            seeds=(7, 8), repetitions=3,
                            optimized=False, min_count=4)


def test_parse_config_defaults():
    c = parse_config("")
    assert c == BenchConfig()
    assert c.variations == (10,) and c.seeds == (1,) and c.optimized


@pytest.mark.parametrize("text,fragment", [
    ("base_nodes 20\n", "key = value"),
    ("base_nodes = twenty\n", "line 1"),
    ("unknown_key = 1\n", "unknown key"),
    ("timeout_ms = 5\n", "line 1: unknown key"),
    ("optimized = maybe\n", "true or false"),
    ("variations = \n", "empty"),
    ("seeds = ,\n", "empty"),
    ("repetitions = 0\n", "at least 1"),
    ("base_nodes = 10\nmin_count = 1\n", "line 2: "),
    ("base_nodes = 10\nseeds = 1, ١\n", "line 2: non-ASCII"),
    ("delete_fraction = ٠.5\n", "line 1: non-ASCII"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(BenchConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("line", [
    "base_nodes = 0", "variations = 2, 0, 4", "delete_fraction = 1.5",
    "delete_fraction = -0.1", "delete_fraction = nan", "edges_per_node = -1",
    "edges_per_node = inf", "label_alphabet = 0", "pattern_nodes = 0",
    "pattern_edges = -1", "repetitions = 0", "min_count = 1",
])
def test_parse_config_rejects_an_out_of_range_value_on_its_line(line):
    key = line.partition(" ")[0]
    with pytest.raises(BenchConfigError, match=f"^line 3: {key} must be "):
        parse_config(f"# sweep\nbase_nodes = 10\n{line}\n")


def test_parse_config_accepts_the_ends_of_each_range():
    c = parse_config("base_nodes = 1\nvariations = 1\ndelete_fraction = 0.5\n"
                     "edges_per_node = 0\nlabel_alphabet = 1\npattern_nodes = 1\n"
                     "pattern_edges = 0\nrepetitions = 1\nmin_count = 2\nseeds = -3\n")
    assert c == BenchConfig(base_nodes=1, variations=(1,), delete_fraction=0.5,
                            edges_per_node=0.0, label_alphabet=1, pattern_nodes=1,
                            pattern_edges=0, repetitions=1, min_count=2, seeds=(-3,))
    assert parse_config("delete_fraction = 0\n").delete_fraction == 0.0


# ---- parser fuzzing ----

# short values, so that one corrupted character can also empty a list or
# zero the repetitions; each key's value is in its range, since an
# out-of-range value is invalid input
INTS = st.integers(-99, 999)
POSITIVE = st.integers(1, 999)


@st.composite
def configs(draw):
    return BenchConfig(
        base_nodes=draw(POSITIVE), variations=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=3))),
        delete_fraction=draw(st.floats(0.0, 0.5)),
        edges_per_node=draw(st.floats(min_value=0.0, allow_infinity=False)),
        label_alphabet=draw(POSITIVE), pattern_nodes=draw(POSITIVE),
        pattern_edges=draw(st.integers(0, 999)),
        seeds=tuple(draw(st.lists(INTS, min_size=1, max_size=3))),
        repetitions=draw(st.integers(1, 20)),
        optimized=draw(st.booleans()), min_count=draw(st.integers(2, 999)))


def config_text(config: BenchConfig) -> str:
    lines = ["# generated"]
    for field in fields(BenchConfig):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            value = ", ".join(map(str, value))
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{field.name} = {value}")
    return "\n".join(lines) + "\n"


@given(configs())
def test_generated_configs_round_trip(config):
    assert parse_config(config_text(config)) == config


CONFIG_CORRUPTIONS = st.sampled_from(list("=,.#e-_a0123456789 \t²"))


@settings(max_examples=400, deadline=None)
@given(configs(), st.data())
def test_a_corrupted_config_line_fails_on_that_line(config, data):
    text = config_text(config)
    lineno, corrupted = corrupt_line(text, data, alphabet=CONFIG_CORRUPTIONS)
    try:
        got = parse_config(corrupted)
    except BenchConfigError as exc:
        assert str(exc).startswith(f"line {lineno}: ")
        return
    # accepted: the corrupted line still sets its own key, or became a comment
    key = text.split("\n")[lineno - 1].partition("=")[0].strip()
    for field in fields(BenchConfig):
        if field.name != key:
            assert getattr(got, field.name) == getattr(config, field.name)


def test_run_bench_record_shape():
    records = run_bench(TINY)
    assert len(records) == 4  # two variation settings x two seeds
    assert [r.graph_index for r in records] == [1, 1, 2, 2]
    assert [r.seed for r in records] == [1, 2, 1, 2]
    for r in records:
        assert r.nodes > 0 and r.edges >= 0
        assert r.grammar_size > 0 and r.ratio > 0
        assert r.baseline_ms >= 0 and r.grammar_ms >= 0
        assert r.compress_ms > 0
        assert (r.pattern_nodes, r.pattern_edges) == (3, 3)


def test_run_bench_is_deterministic_outside_timings():
    def strip(records):
        return [(r.graph_index, r.nodes, r.edges, r.grammar_size, r.ratio,
                 r.pattern_nodes, r.pattern_edges, r.seed) for r in records]
    assert strip(run_bench(TINY)) == strip(run_bench(TINY))


def test_run_bench_reports_progress():
    lines = []
    run_bench(BenchConfig(base_nodes=6, variations=(2,), delete_fraction=0.0,
                          edges_per_node=1.0, label_alphabet=1, pattern_nodes=2,
                          pattern_edges=1, seeds=(3,), repetitions=1),
              progress=lines.append)
    assert any("generating" in line for line in lines)
    assert any("timing" in line for line in lines)


@pytest.mark.parametrize("repetitions", [0, -1])
def test_run_bench_rejects_repetitions_below_one_before_generating(monkeypatch, repetitions):
    import gramsim.bench as bench_mod

    def no_generation(params):
        raise AssertionError("generated a graph")

    monkeypatch.setattr(bench_mod, "gen_graph", no_generation)
    with pytest.raises(ValueError, match="^repetitions must be at least 1$"):
        run_bench(BenchConfig(base_nodes=8, variations=(2,), repetitions=repetitions))


@pytest.mark.parametrize("overrides, message", [
    # compress rejects it, but only once the first graph is generated
    ({"min_count": 1}, "min_count must be at least 2"),
    # a later cell's parameters, after the first cell would have run
    ({"variations": (2, 0)}, "variations must be at least 1"),
    ({"pattern_nodes": 2, "pattern_edges": 5}, "edges exceed"),
])
def test_run_bench_rejects_a_bad_cell_before_generating(overrides, message):
    lines = []
    with pytest.raises(ValueError, match=message):
        run_bench(replace(TINY, **overrides), progress=lines.append)
    assert not any("generating" in line for line in lines)


def test_run_bench_detects_engine_disagreement(monkeypatch):
    import gramsim.bench as bench_mod

    def lying_expand(grammar, result, path_map):
        return {"wrong": frozenset()}

    monkeypatch.setattr(bench_mod, "expand_by_node", lying_expand)
    with pytest.raises(BenchMismatchError) as err:
        run_bench(TINY)
    # the message must let the user reproduce the failing cell
    assert "seed=1" in str(err.value)
    assert "base_nodes=8" in str(err.value)


def test_csv_format():
    record = BenchRecord(graph_index=1, nodes=24, edges=30, grammar_size=40,
                         ratio=0.7407407, baseline_ms=1.23456, grammar_ms=0.9,
                         pattern_nodes=3, pattern_edges=3, seed=5, compress_ms=12.3456)
    text = to_csv([record])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,24,30,40,0.740741,1.235,0.900,3,3,5,12.346"
    assert text.endswith("\n")


README = Path(__file__).parent.parent / "README.md"


def test_readme_bench_columns_and_defaults_match_the_code():
    text = " ".join(README.read_text().split())
    columns = re.search(r"Bench CSV columns: `([^`]+)`", text)
    assert columns and columns.group(1) == CSV_HEADER
    listed = re.search(r"Keys and defaults: (.*?)\. Any other key is an error", text)
    assert listed
    defaults = dict(re.fullmatch(r"`(\w+)` (\S+)", item).groups()
                    for item in listed.group(1).split(", "))
    assert list(defaults) == [f.name for f in fields(BenchConfig)]
    for key, value in defaults.items():
        # a listed value reads back, through the config parser, as the
        # field's default
        assert getattr(parse_config(f"{key} = {value}"), key) == getattr(BenchConfig(), key), key
