"""Self-check of the benchmark, mostly in quick mode (about a minute).

    python3 bench/selftest.py

Checks, on family n = 2 and two spheres per pool:
- every workload certifies every instance, plain and traced;
- the result lines carry exactly the metrics BENCHMARK.json names;
- the exact counters repeat between two traced runs, and family n = 2
  expands 67 flip-distance nodes;
- a full traced family run expands the baseline 47 410 nodes;
- --compare refuses results with different instance digests;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORK = ROOT / ".bench_work"


def _run(*args, cwd=ROOT, script=RUN) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    counts = {}
    for trace in (0, 1, 1):
        for wl in spec["workloads"]:
            code, lines = _run("--workload", wl["name"], "--quick", "--seconds", "1", "--trace", str(trace))
            result = json.loads(lines[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0, f"{wl['name']} trace {trace} failed")
            expect(sorted(result["metrics"]) == sorted(names[trace]), f"{wl['name']} trace {trace}: metric names")
            if trace:
                got = {k: result["metrics"][k]["value"] for k in ("flipdist.nodes", "tetdecomp.min_tet.nodes", "sphere.recut_min_flip.cycles_tried")}
                expect(counts.setdefault(wl["name"], got) == got, f"{wl['name']}: exact counts differ between runs")
    expect(counts["family"]["flipdist.nodes"] == 67, f"family n = 2 expanded {counts['family']['flipdist.nodes']} nodes, not 67")
    code, lines = _run("--workload", "family", "--seconds", "1", "--trace", "1")
    nodes = json.loads(lines[-1])["metrics"]["flipdist.nodes"]["value"]
    expect(code == 0 and nodes == 47_410, f"full family run exited {code} after {nodes} nodes, not 47 410")

    for seed in (1, 2):
        _run("--workload", "random-fill", "--quick", "--seconds", "1", "--seed", str(seed))
    results = [WORK / f"random-fill-seed{s}-trace0-quick" / "result.json" for s in (1, 2)]
    code, _ = _run("--compare", *map(str, results))
    expect(code == 2, "--compare accepted results with different instance digests")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = _run("--workload", "family", "--seconds", "1", cwd=bare, script=bare / "bench" / "run.py")
    expect(code != 0 and not lines, "without src/ the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
