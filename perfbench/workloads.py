"""The benchmark's workloads: seeded inputs, the calls into gramsim, and the
checks of every answer against the plain-graph engine.

Each workload is a closed loop with one client in one process: the next
call starts when the previous one returned. A run is a series of rounds.
Every round sets each graph up afresh (load_graph + compress), stores,
reloads and decompresses it, answers one cold query and then a few warm
queries on each fresh grammar, and a few plain-mode queries; each of
these phases covers every graph. Rounds repeat until the run's time is
up, so that every metric is a median over samples spread across the
whole run.

A round's grammars are freed when it ends. Grammars compare equal by
value and simulate_on_grammar keeps its caches per grammar value, so a
grammar kept alive from an earlier round would hand its warm caches to
this round's "cold" answers. Each round checks that the grammars of
earlier rounds are gone.

- query-stream: a redundant graph (compression ratio near 0.18) answers a
  stream of patterns, none repeated on one grammar. Warm simulation,
  expand_by_node and the per-grammar caches do the work.
- ingest: the least redundant and densest graph (ratio near 0.55).
  compress and the text formats do the work; queries are few.
- many-small: twelve small graphs. Each round compresses every one
  afresh and queries it a few times, so per-grammar set-up dominates.

Plain mode does not finish on the query-stream and ingest graphs, so they
answer plain-mode queries on a 12-copy companion graph built from the same
base subgraph; many-small answers them on the reloaded grammar.
"""

from __future__ import annotations

import gc
import hashlib
import random
import traceback
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from gramsim import (compress, decompress, expand_by_node, format_grammar,
                     format_path_map, graphs_isomorphic_under_map, load_graph,
                     parse_grammar, parse_path_map, save_graph, simulate_on_graph,
                     simulate_on_grammar, size_metrics)
from gramsim.generate import GraphGenParams, PatternGenParams, gen_graph, gen_pattern

from spans import REFERENCE_S, Recorder, reference_s

# Three tree patterns to one cyclic pattern. Trees nearly always match and
# cycles nearly never do; at 1:1 the median answer sat on the boundary
# between the two modes and moved from run to run.
TREES = ((4, 3), (5, 4), (6, 5))
CYCLES = ((6, 8), (3, 3))


@dataclass(frozen=True)
class Workload:
    name: str
    # gen_graph parameters without the seed: base_nodes, variations,
    # delete_fraction, edges_per_node, label_alphabet
    graph: tuple[int, int, float, float, int]
    # Graphs are pinned: the structure of the small random base subgraph
    # decides compression and match sizes, so graphs drawn from the run
    # seed moved compression_ratio by 12% and setup_s by 30% between seeds.
    graph_seeds: tuple[int, ...]
    rounds: int      # rounds every run makes, however short its time
    warm: int        # warm answers per graph and round
    # Warm patterns per graph in the pinned pool: at least `warm`, and a
    # multiple of 8, the period of the tree/cycle mix, so that the mix
    # carries on unchanged where the stream wraps round the pool.
    pool: int
    plain: int       # plain-mode answers per graph and round; odd, so the median is one query
    companion: int   # variations of the plain-mode companion graph (0: none)

    @property
    def instances(self) -> int:
        return len(self.graph_seeds)


WORKLOADS = {
    "query-stream": Workload("query-stream", (40, 250, 0.0, 1.25, 2), (1,),
                             rounds=4, warm=8, pool=56, plain=5, companion=12),
    "ingest": Workload("ingest", (50, 200, 0.5, 2.0, 4), (1,),
                       rounds=4, warm=10, pool=48, plain=3, companion=12),
    "many-small": Workload("many-small", (16, 50, 0.5, 1.25, 2), tuple(range(12)),
                           rounds=3, warm=1, pool=8, plain=1, companion=0),
}

# reduced sizes for the self-test
SMALL = {
    "query-stream": Workload("query-stream", (40, 50, 0.0, 1.25, 2), (1,),
                             rounds=2, warm=4, pool=8, plain=3, companion=6),
    "ingest": Workload("ingest", (50, 40, 0.5, 2.0, 4), (1,),
                       rounds=2, warm=4, pool=8, plain=3, companion=6),
    "many-small": Workload("many-small", (16, 10, 0.5, 1.25, 2), (0, 1, 2),
                           rounds=2, warm=2, pool=8, plain=1, companion=0),
}


class RunAborted(Exception):
    """An operation raised; the run's numbers are not usable."""


def edge_list(graph) -> str:
    """The benchmark's own edge-list writer: the text the program is fed."""
    lines = [f"{nid} {label}" for nid, label in graph.nodes]
    lines += [f"{src} {dst}" for src, dst in sorted(graph.edges)]
    return "\n".join(lines) + "\n"


class PatternStream:
    """Distinct seeded patterns over a label set, as edge-list text."""

    def __init__(self, key: str, labels):
        self._rng = random.Random(key)
        self._labels = sorted(labels)
        self._texts: list[str] = []
        self._seen: set[str] = set()

    def __getitem__(self, index: int) -> str:
        while len(self._texts) <= index:
            k = len(self._texts)
            nodes, edges = TREES[k % 4] if k % 4 < 3 else CYCLES[(k // 4) % 2]
            for _ in range(1000):
                text = edge_list(gen_pattern(
                    PatternGenParams(nodes, edges, self._rng.randrange(2**31)), self._labels))
                if text not in self._seen:
                    break
            else:
                raise ValueError(f"no new distinct {nodes}-node pattern in 1000 draws")
            self._seen.add(text)
            self._texts.append(text)
        return self._texts[index]


@dataclass
class Answer:
    simulate_s: float
    expand_s: float
    baseline_s: float
    suffixes: int
    matched: int

    @property
    def ms(self) -> float:
        return (self.simulate_s + self.expand_s) * 1000.0


class Session:
    """One run: the calls into gramsim, their samples, and the checks."""

    def __init__(self, workload: Workload, seed: int, recorder: Recorder):
        self.workload = workload
        self.seed = seed
        self.rec = recorder
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(int)
        self.attempted = 0
        self.failures: list[str] = []
        self.references: list[float] = []
        self._phase: list[tuple[str, float]] | None = None
        self._grammars: list[weakref.ref] = []  # made in this round
        self._earlier: list[weakref.ref] = []   # made in earlier rounds, still alive

    def add(self, key: str, seconds: float) -> None:
        """Record a time taken in the current phase; it is scaled when the phase ends."""
        self._phase.append((key, seconds))

    @contextmanager
    def phase(self, name: str | None = None):
        """Time the calls made inside as one phase, scaled to nominal machine speed.

        The phase starts on a collected heap, with what exists frozen out
        of the collections it triggers. GC stays on: a phase pays for
        collecting its own garbage, but not for scanning what other phases
        left alive. Left to chance, a full collection of 0.1-0.3 s landed
        in a different timed call in every run. What the phase leaves is
        collected and frozen too before the second reference loop, so
        that neither loop scans objects the phase made.

        The shared 2-core VM this benchmark was built on changed speed by
        up to 4x within minutes, and by 25% within seconds, with nothing
        else of ours running. So a fixed reference loop is timed before
        and after the phase, and each time taken in it is scaled by
        REFERENCE_S / (mean of the two). On that VM, over 15- and
        20-second chunks of fixed compress and query loops, this cut the
        spread of the chunk medians from up to 45% to about 5%.

        A named phase also records its scaled wall time as `<name>_wall_s`.
        """
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        before = reference_s()
        self._phase = []
        start = perf_counter()
        yield
        wall = perf_counter() - start
        gc.collect()  # only what the phase left; the rest stays frozen
        gc.freeze()
        after = reference_s()
        self.references += [before, after]
        scale = REFERENCE_S / ((before + after) / 2)
        for key, seconds in self._phase:
            self.samples[key].append(seconds * scale)
        if name is not None:
            self.samples[f"{name}_wall_s"].append(wall * scale)
        self._phase = None

    def end_round(self) -> None:
        """Sum the round's per-graph set-up, reload and decompress times."""
        for key in ("setup_s", "reload_s", "decompress_s"):
            self.samples[key].append(sum(self.samples.pop(f"round.{key}")))
        self._earlier += self._grammars
        self._grammars = []

    def check_earlier_grammars_gone(self) -> None:
        """Check that no grammar of an earlier round is alive to share its caches."""
        self._earlier = [ref for ref in self._earlier if ref() is not None]
        self.check(not self._earlier,
                   f"{len(self._earlier)} grammar(s) of earlier rounds are still alive, "
                   "so the first answers may reuse their warm caches")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{self.workload.name} seed {self.seed}: {what}")

    def guard(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed one and ends the run."""
        try:
            return fn(*args)
        except Exception as exc:  # every exception of the program is a failed operation
            self.attempted += 1
            self.failures.append(f"{self.workload.name} seed {self.seed}: {what} raised "
                                 f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            raise RunAborted(what) from exc

    # ---- operations ----

    def setup(self, text: str):
        """Edge-list text to a queryable grammar plus path map."""
        def run():
            graph, load_s = self.rec.call("graph.load_graph", load_graph, text)
            (gg, pm), compress_s = self.rec.call("compress.compress", compress, graph)
            return graph, gg, pm, load_s, compress_s
        graph, gg, pm, load_s, compress_s = self.guard("load_graph + compress", run)
        self.attempted += 1
        self._grammars.append(weakref.ref(gg))
        return graph, gg, pm, load_s, compress_s

    def round_trip(self, graph, gg, pm):
        """Store, reload and decompress; check all three round trips.

        Returns the reloaded grammar and path map, the reload and
        decompress seconds, and the size of the stored text.
        """
        call = self.rec.call

        def run():
            saved, t = call("graph.save_graph", save_graph, graph)
            self.add("graph.save_graph_s", t)
            self.check(load_graph(saved) == graph, "graph changed through save_graph -> load_graph")
            grammar_text, t = call("grammar.format_grammar", format_grammar, gg)
            self.add("grammar.format_grammar_s", t)
            map_text, t = call("grammar.format_path_map", format_path_map, pm)
            self.add("grammar.format_path_map_s", t)
            gg2, parse_s = call("grammar.parse_grammar", parse_grammar, grammar_text)
            self._grammars.append(weakref.ref(gg2))
            pm2, parse_map_s = call("grammar.parse_path_map", parse_path_map, map_text)
            violations, validate_s = call("grammar.validate", gg2.validate)
            self.add("grammar.parse_grammar_s", parse_s)
            self.add("grammar.parse_path_map_s", parse_map_s)
            self.add("grammar.validate_s", validate_s)
            self.check(not violations and format_grammar(gg2) == grammar_text,
                       "grammar text not byte-identical through parse_grammar -> format_grammar")
            self.check(pm2 == pm and format_path_map(pm2) == map_text,
                       "path map changed through format_path_map -> parse_path_map")
            (restored, canonical), decompress_s = call("grammar.decompress", decompress, gg2)
            self.add("grammar.decompress_s", decompress_s)
            composed = {nid: canonical.node_for(path) for path, nid in pm}
            self.check(graphs_isomorphic_under_map(graph, restored, composed),
                       "decompress not isomorphic to the loaded graph under the composed maps")
            text_bytes = len(grammar_text) + len(map_text)
            return gg2, pm2, parse_s + parse_map_s + validate_s, decompress_s, text_bytes

        return self.guard("store/reload/decompress", run)

    def answer(self, mode: str, gg, pm, graph, text: str, group: str) -> Answer:
        """One query: pattern text to node ids, checked against simulate_on_graph."""
        call = self.rec.call

        def run():
            pattern, _ = call("graph.load_graph", load_graph, text)
            result, simulate_s = call("simulate.simulate_on_grammar", simulate_on_grammar,
                                      gg, pattern, optimized=mode != "plain")
            nodes, expand_s = call("simulate.expand_by_node", expand_by_node, gg, result, pm)
            expected, baseline_s = call("baseline.simulate_on_graph", simulate_on_graph,
                                        graph, pattern)
            return result, nodes, expected, simulate_s, expand_s, baseline_s

        shown = text.strip().replace("\n", "; ")
        with self.rec.scope("bench.query", group):
            result, nodes, expected, simulate_s, expand_s, baseline_s = self.guard(
                f"{mode} query on pattern [{shown}]", run)
        self.check(nodes == expected,
                   f"{mode} grammar answer differs from simulate_on_graph on pattern [{shown}]")
        matched = sum(len(v) for v in expected.values())
        self.counts["answers"] += 1
        self.counts["answers_empty"] += not expected
        self.counts["answers_matched_pairs"] += matched
        return Answer(simulate_s, expand_s, baseline_s, len(result.pairs), matched)

    def cold(self, gg, pm, graph, text: str, group: str) -> None:
        """The first query on a fresh grammar, which builds simulate's caches."""
        answer = self.answer("optimized", gg, pm, graph, text, group)
        self.add("first_answer_ms", answer.ms)
        self.add("simulate.cold_ms", answer.simulate_s * 1000.0)
        self.add("baseline.first_ms", answer.baseline_s * 1000.0)

    def warm(self, answer: Answer, counted: bool) -> None:
        self.add("answer_ms", answer.ms)
        self.add("simulate.warm_ms", answer.simulate_s * 1000.0)
        self.add("simulate.expand_ms", answer.expand_s * 1000.0)
        self.add("baseline_ms", answer.baseline_s * 1000.0)
        if counted:
            self.counts["simulate.result_suffixes"] += answer.suffixes
            self.counts["simulate.matched_pairs"] += answer.matched
            self.counts["simulate.empty_results"] += answer.matched == 0

    def plain(self, answer: Answer) -> None:
        self.add("plain_answer_ms", answer.ms)
        self.add("simulate.plain_ms", answer.simulate_s * 1000.0)

    def sizes(self, graph, gg, text_bytes: int) -> None:
        self.counts["grammar.text_bytes"] += text_bytes
        self.counts["graph_size"] += size_metrics(graph)
        self.counts["compress.grammar_size"] += size_metrics(gg)
        self.counts["compress.rules"] += len(gg.rules)
        self.counts["compress.edge_pairs"] += len(gg.edge_pairs)
        self.counts["nodes"] += len(graph)
        self.counts["edges"] += len(graph.edges)


@dataclass
class Inputs:
    """A run's generated inputs, as edge-list text.

    Patterns are pinned like the graphs. The warm stream of each graph
    runs round a pinned pool of patterns, from a start the run seed
    picks. A run of full length goes round the pool about once, so every
    seed measures nearly the same patterns, in another order; when the
    warm patterns were drawn from the seed, their match sizes moved
    answer_p50_ms by 10% and answers_per_s by 12% between seeds. The
    probe patterns give cold first answers and plain-mode answers the
    same queries on every seed.
    """

    graphs: list[str]
    pools: list[PatternStream]     # per graph, pinned
    starts: list[int]              # per graph, from the run seed
    probes: list[PatternStream]    # per graph, pinned; plain mode uses the companion's
    companion: str                 # plain-mode companion graph ("" on many-small)

    def warm(self, i: int, k: int, workload: Workload) -> str:
        """The k-th warm pattern of graph i."""
        return self.pools[i][(self.starts[i] + k) % workload.pool]

    def digest(self, workload: Workload) -> str:
        """sha256 over the graph texts and every pinned pattern a run can use.

        It does not depend on the run seed, so one recorded digest per
        workload checks the generator for every run.
        """
        texts = self.graphs + [self.companion]
        texts += [pool[k] for pool in self.pools for k in range(workload.pool)]
        texts += [probes[k] for probes in self.probes for k in range(1 + workload.plain)]
        digest = hashlib.sha256()
        for text in texts:
            digest.update(text.encode())
            digest.update(b"\0")
        return digest.hexdigest()


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the inputs of one run; the same seed gives the same inputs."""
    def generate(params: tuple, graph_seed: int) -> tuple[str, frozenset[str]]:
        graph = gen_graph(GraphGenParams(*params, seed=graph_seed))
        return edge_list(graph), graph.label_set()

    name = workload.name
    graphs, pools, starts, probes = [], [], [], []
    for graph_seed in workload.graph_seeds:
        text, labels = generate(workload.graph, graph_seed)
        graphs.append(text)
        pools.append(PatternStream(f"{name}:{graph_seed}:pool", labels))
        starts.append(random.Random(f"{name}:{graph_seed}:{seed}").randrange(workload.pool))
        probes.append(PatternStream(f"{name}:{graph_seed}:probe", labels))
    companion = ""
    if workload.companion:
        params = workload.graph[:1] + (workload.companion,) + workload.graph[2:]
        companion, labels = generate(params, workload.graph_seeds[0])
        probes.append(PatternStream(f"{name}:companion:probe", labels))
    return Inputs(graphs, pools, starts, probes, companion)


def run(session: Session, inputs: Inputs, seconds: float) -> None:
    """Run rounds until `seconds` have passed and at least `rounds` are done."""
    started = perf_counter()
    r = 0
    while r < session.workload.rounds or perf_counter() - started < seconds:
        with session.rec.scope("bench.round", f"round-{r}"):
            one_round(session, inputs, r)
        session.end_round()
        r += 1


def one_round(session: Session, inputs: Inputs, r: int) -> None:
    """Every phase once, over every graph; the round's grammars die on return."""
    w = session.workload
    fresh, reloaded = [], []
    with session.phase():
        for text in inputs.graphs:
            graph, gg, pm, load_s, compress_s = session.setup(text)
            session.add("graph.load_graph_s", load_s)
            session.add("compress.compress_s", compress_s)
            session.add("round.setup_s", load_s + compress_s)
            fresh.append((gg, pm, graph))
    with session.phase():
        for gg, pm, graph in fresh:
            gg2, pm2, reload_s, decompress_s, text_bytes = session.round_trip(graph, gg, pm)
            session.add("round.reload_s", reload_s)
            session.add("round.decompress_s", decompress_s)
            reloaded.append((gg2, pm2, graph))
            if r == 0:
                session.sizes(graph, gg, text_bytes)
    with session.phase():
        session.check_earlier_grammars_gone()
        for i, target in enumerate(fresh):
            session.cold(*target, inputs.probes[i][0], f"first-{r}-{i}")
    with session.phase("warm"):
        for i, target in enumerate(fresh):
            for k in range(r * w.warm, (r + 1) * w.warm):
                answer = session.answer("optimized", *target, inputs.warm(i, k, w),
                                        f"warm-{r}-{i}-{k}")
                session.warm(answer, counted=r == 0)
    if inputs.companion:
        graph, gg, pm, _, _ = session.setup(inputs.companion)
        plain = [((gg, pm, graph), inputs.probes[-1])]
    else:
        plain = list(zip(reloaded, inputs.probes))
    # plain mode runs on fresh grammars, whose caches are cold, for the
    # same pinned patterns in every round
    with session.phase():
        for i, (target, probes) in enumerate(plain):
            for k in range(1, 1 + w.plain):
                session.plain(session.answer("plain", *target, probes[k],
                                             f"plain-{r}-{i}-{k}"))
