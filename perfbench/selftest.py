"""Self-test of the benchmark, at reduced sizes.

    python3 perfbench/selftest.py                  # about 20 seconds
    python3 perfbench/selftest.py --record-digests # rewrite perfbench/digests.json

For every workload in BENCHMARK.json it runs the benchmark twice untraced
and twice traced at reduced size, and checks that:

- every run exits 0 with a correct result and no failed operation;
- every end-to-end metric (untraced) and every per-layer metric (traced)
  is in the JSON result with the unit BENCHMARK.json gives, and is
  printed in the report with that unit;
- exact counts (compression_ratio, compress.*, simulate counts, the
  input digest) repeat exactly across runs of the same seed;
- every first answer finds no entry for its grammar in simulate's
  cache, so it is really cold (checked in-process, on each workload's
  minimum number of rounds);
- in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.

It also prints the tracing overhead: the difference in answers_per_s
between an untraced and a traced run, and the cost of recording spans
that the traced run measures itself.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SEED = 7
EXACT_E2E = ("compression_ratio",)
EXACT_LAYER = ("compress.rules", "compress.edge_pairs", "compress.grammar_size",
               "grammar.text_bytes", "simulate.result_suffixes", "simulate.matched_pairs",
               "simulate.empty_results")
LINE = re.compile(r"^\s+(\S+)\s+(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)\s+(\S+)", re.M)
DIGEST = re.compile(r"^inputs sha256 ([0-9a-f]{64})", re.M)


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout + proc.stderr


def check_run(workload: str, trace: int, expected: dict[str, str], problems: list[str]):
    code, out = run(ROOT, workload, trace)
    tag = f"{workload} trace {trace}"
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{tag}: no JSON result line (exit {code})\n{out}")
        return None, out
    if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: exit {code}, result {result['correct']}, "
                        f"{result['failed']} of {result['attempted']} failed\n{out}")
    printed = {name: unit for name, _, unit in LINE.findall(out)}
    for name, unit in expected.items():
        got = result["metrics"].get(name, {}).get("unit")
        if got != unit:
            problems.append(f"{tag}: metric {name} in the JSON result has unit {got}, not {unit}")
        if printed.get(name) != unit:
            problems.append(f"{tag}: metric {name} is not printed with unit {unit}")
    return result, out


def bare_checkout_fails(problems: list[str]) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, out = run(bare, "many-small", 0)
    finally:
        shutil.rmtree(bare)
    if code == 0 or '"metrics"' in out:
        problems.append(f"without gramsim's sources the benchmark exited {code}:\n{out}")


def first_answers_are_cold(problems: list[str]) -> None:
    """Read simulate's per-grammar cache before every first answer.

    Grammars equal by value share that cache, so a grammar left alive
    from an earlier round would make the next round's first answers warm.
    The benchmark itself checks that earlier grammars are gone; this
    checks the cache the check stands in for.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from gramsim import simulate
    from spans import Recorder
    from workloads import SMALL, Session, make_inputs, run

    cache = getattr(simulate, "_INDEX_CACHE", None)
    if cache is None:
        print("gramsim.simulate has no _INDEX_CACHE; first-answer cache probe skipped")
        return

    class Probe(Session):
        def cold(self, gg, *args):
            if gg in cache:
                problems.append(f"{self.workload.name} {args[-1]}: simulate's cache already "
                                "holds the fresh grammar before its first answer")
            super().cold(gg, *args)

    for workload in SMALL.values():
        session = Probe(workload, SEED, Recorder(tracing=False))
        run(session, make_inputs(workload, SEED), 0)  # the minimum number of rounds
        problems.extend(session.failures)


def record_digests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_inputs
    recorded = {name: make_inputs(w, 0).digest(w) for name, w in WORKLOADS.items()}
    (HERE / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main() -> int:
    if sys.argv[1:] == ["--record-digests"]:
        record_digests()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [check_run(workload, 0, e2e, problems) for _ in range(2)]
        traced = [check_run(workload, 1, layers, problems) for _ in range(2)]
        if any(result is None for result, _ in untraced + traced):
            continue
        for names, pair in ((EXACT_E2E, untraced), (EXACT_LAYER, traced)):
            for name in names:
                values = [result["metrics"][name]["value"] for result, _ in pair]
                if values[0] != values[1]:
                    problems.append(f"{workload}: {name} differs between runs: {values}")
        digests = {DIGEST.search(out).group(1) for _, out in untraced + traced}
        if len(digests) != 1:
            problems.append(f"{workload}: input digest differs between runs: {digests}")
        speeds = [float(dict((n, v) for n, v, _ in LINE.findall(out))["answers_per_s"])
                  for _, out in (untraced[0], traced[0])]
        recording = traced[0][0]["metrics"]["trace.overhead_share"]["value"]
        print(f"{workload}: tracing overhead {1 - speeds[1] / speeds[0]:+.1%} in answers_per_s "
              f"(untraced {speeds[0]:.1f}, traced {speeds[1]:.1f}; one reduced-size run each); "
              f"span recording measured in the traced run: {recording:.3%} of its wall time")
    first_answers_are_cold(problems)
    bare_checkout_fails(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
