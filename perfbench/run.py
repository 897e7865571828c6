"""Phase-level benchmark of gramsim, timed per module against the plain-graph engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload query-stream --seed 1 --seconds 30 --trace 0

It generates seeded inputs, feeds them to gramsim as edge-list text, times
every call into graph, compress, grammar, simulate and baseline from
outside, and checks every answer against simulate_on_graph and every text
format round trip. It prints a report, then, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, taken from spans the benchmark records around each call and writes
to .perfbench/ when the run ends. Exit code 0 means every check passed,
1 a failed check or operation, 2 a usage error or a checkout without
gramsim's sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import LAYERS, REFERENCE_S, Recorder, span_cost, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def end_to_end(s) -> dict[str, tuple[float, str]]:
    answers, baseline = s.samples["answer_ms"], s.samples["baseline_ms"]
    return {
        "setup_s": (median(s.samples["setup_s"]), "s"),
        "reload_s": (median(s.samples["reload_s"]), "s"),
        "decompress_s": (median(s.samples["decompress_s"]), "s"),
        "first_answer_ms": (median(s.samples["first_answer_ms"]), "ms"),
        "answer_p50_ms": (median(answers), "ms"),
        "answer_tail_ms": (tail(answers)[0], "ms"),
        "answers_per_s": (len(answers) / sum(s.samples["warm_wall_s"]), "1/s"),
        "baseline_p50_ms": (median(baseline), "ms"),
        "baseline_tail_ms": (tail(baseline)[0], "ms"),
        "plain_answer_p50_ms": (median(s.samples["plain_answer_ms"]), "ms"),
        "compression_ratio": (s.counts["compress.grammar_size"] / s.counts["graph_size"],
                              "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "MB"),
    }


def per_layer(s, recorder: Recorder, wall_s: float) -> dict[str, tuple[float, str]]:
    m = s.samples
    c = s.counts
    out = {
        "graph.load_graph_s": (median(m["graph.load_graph_s"]), "s"),
        "graph.save_graph_s": (median(m["graph.save_graph_s"]), "s"),
        "compress.compress_s": (median(m["compress.compress_s"]), "s"),
        "compress.rules": (c["compress.rules"], "count"),
        "compress.edge_pairs": (c["compress.edge_pairs"], "count"),
        "compress.grammar_size": (c["compress.grammar_size"], "count"),
    }
    for name in ("format_grammar", "format_path_map", "parse_grammar", "parse_path_map",
                 "validate", "decompress"):
        out[f"grammar.{name}_s"] = (median(m[f"grammar.{name}_s"]), "s")
    out.update({
        "grammar.text_bytes": (c["grammar.text_bytes"], "bytes"),
        "simulate.cold_ms": (median(m["simulate.cold_ms"]), "ms"),
        "simulate.warm_p50_ms": (median(m["simulate.warm_ms"]), "ms"),
        "simulate.expand_p50_ms": (median(m["simulate.expand_ms"]), "ms"),
        "simulate.expand_total_s": (sum(m["simulate.expand_ms"]) / 1000.0, "s"),
        "simulate.plain_p50_ms": (median(m["simulate.plain_ms"]), "ms"),
        "simulate.result_suffixes": (c["simulate.result_suffixes"], "count"),
        "simulate.matched_pairs": (c["simulate.matched_pairs"], "count"),
        "simulate.pairs_per_suffix": (
            c["simulate.matched_pairs"] / max(c["simulate.result_suffixes"], 1), "ratio"),
        "simulate.empty_results": (c["simulate.empty_results"], "count"),
        "baseline.first_ms": (median(m["baseline.first_ms"]), "ms"),
        "baseline.simulate_p50_ms": (median(m["baseline_ms"]), "ms"),
    })
    self_times = recorder.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_times[layer], "s")
        out[f"{layer}.self_share"] = (self_times[layer] / wall_s, "share")
    out["trace.spans"] = (len(recorder.spans), "count")
    out["trace.overhead_share"] = (len(recorder.spans) * span_cost() / wall_s, "share")
    return out


def break_even(e2e: dict, s) -> str:
    """Queries after which compress-once beats the plain-graph engine."""
    setup_s = e2e["setup_s"][0] / s.workload.instances
    cost_ms = setup_s * 1000.0 + e2e["first_answer_ms"][0]
    baseline = e2e["baseline_p50_ms"][0]

    def queries(answer_ms: float) -> str:
        saving = baseline - answer_ms
        return f"{cost_ms / saving:.1f} queries" if saving > 0 else "never"

    simulate_only = median(s.samples["simulate.warm_ms"])
    return (f"break-even {queries(e2e['answer_p50_ms'][0])} = (setup per graph {setup_s:.3f} s + "
            f"first answer {e2e['first_answer_ms'][0]:.1f} ms) / (baseline p50 {baseline:.1f} ms "
            f"- answer p50 {e2e['answer_p50_ms'][0]:.1f} ms); without expand_by_node "
            f"(simulate p50 {simulate_only:.1f} ms) it would be {queries(simulate_only)}")


def drift_note(workload: str, size: str, digest: str) -> str:
    if size != "full":
        return "reduced size, no recorded digest"
    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload)
    if recorded is None:
        return "no recorded digest for this workload"
    if recorded == digest:
        return "matches the recorded digest"
    return (f"WORKLOAD DRIFT: recorded {recorded[:16]}; the generator changed these inputs, "
            "so timings are not comparable with runs made before the change")


def report(s, e2e: dict, layers: dict | None, wall_s: float, size: str, digest: str) -> None:
    c = s.counts
    print(f"workload {s.workload.name} seed {s.seed}: {int(c['nodes'])} nodes, "
          f"{int(c['edges'])} edges in {s.workload.instances} graph(s), wall {wall_s:.1f} s"
          + (", traced" if layers is not None else ""))
    print(f"inputs sha256 {digest} ({drift_note(s.workload.name, size, digest)})")
    refs = s.references
    print(f"machine speed: reference loop {median(refs) * 1e3:.2f} ms median, "
          f"{min(refs) * 1e3:.2f}-{max(refs) * 1e3:.2f} ms over {len(refs)} phases; "
          f"times below are scaled to its nominal {REFERENCE_S * 1e3:.2f} ms")
    answered = (f"[{int(c['answers'])} answers, {int(c['answers_empty'])} empty, "
                f"{int(c['answers_matched_pairs'])} matched pairs]")
    rounds = f"median of {len(s.samples['setup_s'])} rounds" + (
        f", summed over {s.workload.instances} graphs" if s.workload.instances > 1 else "")
    details = {
        "setup_s": f"{rounds}, load_graph + compress",
        "reload_s": f"{rounds}, parse_grammar + parse_path_map + validate",
        "decompress_s": rounds,
        "first_answer_ms": f"median of {len(s.samples['first_answer_ms'])}, cold simulate + expand",
        "answers_per_s": "warm answers per second of wall time, checks and oracle included",
        "plain_answer_p50_ms": f"median of {len(s.samples['plain_answer_ms'])} plain-mode answers",
    }
    for key, samples in (("answer", "answer_ms"), ("baseline", "baseline_ms")):
        value, pct, n = tail(s.samples[samples])
        details[f"{key}_p50_ms"] = f"n={n} {answered}"
        details[f"{key}_tail_ms"] = f"p{pct:.0f} of n={n}"
    for name, (value, unit) in e2e.items():
        print(f"  {name:<26} {value:>14.4f} {unit:<6} {details.get(name, '')}".rstrip())
    print(f"  {break_even(e2e, s)}")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"  {name:<26} {value:>14.4f} {unit}")
        print(f"  tracing overhead: {layers['trace.overhead_share'][0]:.2%} of wall "
              f"for {int(layers['trace.spans'][0])} spans; compare end-to-end lines with an "
              "untraced run of the same seed for the whole difference")
    for failure in s.failures:
        print(f"FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("query-stream", "ingest", "many-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs every workload at a reduced size (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gramsim" / "__init__.py").is_file():
        print(f"perfbench: gramsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SMALL, WORKLOADS, RunAborted, Session, make_inputs, run

    started = perf_counter()
    workload = (WORKLOADS if args.size == "full" else SMALL)[args.workload]
    recorder = Recorder(tracing=bool(args.trace))
    session = Session(workload, args.seed, recorder)
    inputs = make_inputs(workload, args.seed)
    digest = inputs.digest(workload)
    try:
        run(session, inputs, args.seconds)
    except RunAborted:
        for failure in session.failures:
            print(f"FAILED {failure}")
        print(json.dumps({"correct": False, "attempted": session.attempted,
                          "failed": len(session.failures), "metrics": {}}))
        return 1
    wall_s = perf_counter() - started

    e2e = end_to_end(session)
    layers = per_layer(session, recorder, wall_s) if args.trace else None
    report(session, e2e, layers, wall_s, args.size, digest)
    if args.trace:
        recorder.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if not session.failures else 1


if __name__ == "__main__":
    sys.exit(main())
