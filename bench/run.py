"""Benchmark for fliptet: certified workloads, end-to-end and per-layer metrics.

Run one workload in this process:

    python3 bench/run.py --workload family --seed 1 --seconds 30 --trace 0

It builds nothing: it imports fliptet from `src/` of the checkout it sits
in.  Set-up generates the workload's inputs from the seed and writes them
as CLI text files under `.bench_work/`; the timed loop parses them back
and certifies every answer (see workloads.py).  Each instance runs in as
many passes as fit in `--seconds`, at least one, and its fastest time,
scaled by the host-speed probes taken while it ran, counts.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs traced
passes by the same rule and prints the per-layer metrics, with the spans
written to `.bench_work/<run>/spans.jsonl`.  The last line of standard
output is the result object; the line before it is the environment
stamp.  Any failed check exits 1.

    python3 bench/run.py --workload all [--trace 1]   # every workload, one process each
    python3 bench/run.py --compare A.json B.json      # two result files
    python3 bench/run.py --quick ...                  # family n = 2, two spheres per pool
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
ANSWERS = BENCH / "answers.json"
WORKLOADS = ("family", "random-fill", "lp-sandwich", "recut-scan")

# Seed 1 gives the recorded numbers.  Seed 7919 is held out: it was not
# run while the benchmark was tuned, and a claimed gain must hold on it too.
DEFAULT_SEED = 1
SETUP_REPS = 5  # set-ups per run, each in a fresh process; setup_s is their median
# The host is shared, and its speed flips between a fast and a slow state
# (up to 1.7 times slower) within seconds, in a mix that drifts over
# minutes.  A plain run therefore times a short probe task every
# PROBE_PERIOD_S from a timer signal, also in the middle of a long engine
# call, and scales each instance's time by PROBE_REF_S over the mean time
# of the probes taken while it ran (its pass's mean when none was).
# PROBE_REF_S is the probe's typical time inside a run on a 2-core virtual
# machine with Python 3.11, so scaled times read close to raw ones there.
# Probe time is taken out of the instance times; raw times and probe
# samples stay in result.json.
PROBE_REF_S = 0.0017
PROBE_PERIOD_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_instance_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "flipdist.calls": "count",
    "flipdist.busy_s": "s",
    "flipdist.nodes": "count",
    "flipdist.nodes_per_s": "1/s",
    "flipdist.frontier_peak": "count",
    "tetdecomp.min_tet.calls": "count",
    "tetdecomp.min_tet.busy_s": "s",
    "tetdecomp.min_tet.nodes": "count",
    "tetdecomp.min_tet.nodes_per_s": "1/s",
    "tetdecomp.min_tet.incomplete": "count",
    "tetdecomp.validate_ball.calls": "count",
    "tetdecomp.validate_ball.busy_s": "s",
    "tetdecomp.validate_ball.tets": "count",
    "lpbound.l1_min.calls": "count",
    "lpbound.l1_min.busy_s": "s",
    "lpbound.l1_min.max_s": "s",
    "lpbound.l1_min.chain_support": "count",
    "lpbound.verify_chain.busy_s": "s",
    "sphere.recut_min_flip.calls": "count",
    "sphere.recut_min_flip.busy_s": "s",
    "sphere.recut_min_flip.cycles_tried": "count",
    "sphere.recut_min_flip.s_per_cycle": "s",
    "polygon.replay.busy_s": "s",
    "fileio.parse.calls": "count",
    "fileio.parse.busy_s": "s",
    "fileio.parse.bytes": "bytes",
    "trace.overhead_s": "s",
}
# Layer statistics that are times: over a traced run's passes the fastest
# counts.  Every other statistic is a counter, such as the search nodes,
# and must repeat exactly between passes.
TIME_STATS = ("busy_s", "max_s")


def _commit() -> str:
    """The checkout's git commit, read without running git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _backend() -> str:
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return "fractions"
    return "gmpy2"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _probe() -> None:
    """A fixed task of integer and rational arithmetic, like the engines'.

    The garbage collector is off while it runs, so that its time does not
    depend on the size of the engines' heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    total = 0
    for i in range(8_000):
        total += i * i % 7
    rows = [[Fraction(i * j % 97, 1 + (i + j) % 89) for j in range(12)] for i in range(8)]
    for k in range(4):
        for row in rows[k + 1:]:
            f = row[k] / (rows[k][k] or 1)
            row[:] = [a - f * b for a, b in zip(row, rows[k])]
    if collecting:
        gc.enable()


class Sampler:
    """Times the probe on every tick of a wall-clock timer while armed."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far

    def tick(self, *_signal) -> None:
        began = time.perf_counter()
        _probe()
        took = time.perf_counter() - began
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_pass(certify, tracer, sampler, instances, paths, expected):
    """Certify every instance once.

    Returns per-instance seconds without probe time, failures, answers,
    the pass's probe samples (at least one when the sampler is enabled)
    and per instance the mean of the samples taken while it ran.
    """
    times, failures, answers, probed = {}, {}, {}, {}
    first = len(sampler.samples)
    for inst in instances:
        began, spent, taken = time.perf_counter(), sampler.spent, len(sampler.samples)
        try:
            got = tracer.instance(inst.id, certify, tracer, inst, paths[inst.id])
            answers[inst.id] = got
            if got != expected.get(inst.id):
                failures[inst.id] = f"answers {got} differ from the frozen {expected.get(inst.id)}"
        except Exception as exc:  # every failure is counted, none stops the run
            failures[inst.id] = f"{type(exc).__name__}: {exc}"
        times[inst.id] = time.perf_counter() - began - (sampler.spent - spent)
        if len(sampler.samples) > taken:
            probed[inst.id] = statistics.fmean(sampler.samples[taken:])
    if sampler.enabled and len(sampler.samples) == first:
        sampler.tick()
    return times, failures, answers, sampler.samples[first:], probed


def _fastest(passes: list[dict], probes: list[list[float]], probed: list[dict]) -> dict:
    """Per instance, its fastest time over the passes, scaled by its probes.

    An instance during which no probe ran takes its pass's mean probe time.
    """
    out = {}
    for key in passes[0]:
        out[key] = min(
            p[key] * PROBE_REF_S / inst.get(key, statistics.fmean(pr))
            for p, pr, inst in zip(passes, probes, probed)
        )
    return out


def _combine_layers(passes: list[dict]) -> tuple[dict, list[str]]:
    """One Tracer.layers() record from several traced passes.

    Times keep their fastest pass; counters must agree between passes.
    Returns the record and a message per counter that differs.
    """
    layers, differ = {}, []
    for name in sorted(set().union(*passes)):
        per_pass = [p.get(name, {}) for p in passes]
        layers[name] = {}
        for key in sorted(set().union(*per_pass)):
            values = [p.get(key, 0) for p in per_pass]
            if key in TIME_STATS:
                layers[name][key] = min(values)
            else:
                layers[name][key] = values[0]
                if len(set(values)) > 1:
                    differ.append(f"{name}.{key} differs between traced passes: {values}")
    return layers, differ


def _layer_metrics(layers: dict) -> dict:
    """The per-layer metrics from a Tracer.layers() record.

    A metric name is `<layer>.<key>`; the two rates divide a count by the
    layer's busy time.
    """
    out = {}
    for name in PER_LAYER:
        layer, key = name.rsplit(".", 1)
        stats = layers.get(layer, {})
        busy = stats.get("busy_s", 0.0)
        if key == "nodes_per_s":
            out[name] = stats["nodes"] / busy if busy else 0.0
        elif key == "s_per_cycle":
            out[name] = busy / stats["cycles_tried"] if busy else 0.0
        elif layer != "trace":
            out[name] = stats.get(key, 0)
    return out


# A fresh process's set-up: importing fliptet, generating the inputs and
# writing them.  It prints its own time, which leaves out the start of the
# interpreter, and then the mean time of SETUP_PROBES probes, run right
# after it while the host is most likely still in the same state.
SETUP_PROBES = 20
SETUP_CODE = """
import sys, time
began = time.perf_counter()
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.write_inputs(Path(sys.argv[3]), workloads.build(sys.argv[4], int(sys.argv[5]), sys.argv[6] == "1"))
took = time.perf_counter() - began
import run
sampler = run.Sampler(False)
for _ in range(run.SETUP_PROBES):
    sampler.tick()
print(took, sampler.spent / len(sampler.samples))
"""


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "fliptet").is_dir():
        print(f"no fliptet sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fliptet
    import workloads as w

    if Path(fliptet.__file__).resolve().parent != (src / "fliptet").resolve():
        print(f"imported fliptet from {fliptet.__file__}, not from {src}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    setup_times, setup_probes = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src), str(BENCH), str(run_dir),
             args.workload, str(args.seed), "1" if args.quick else "0"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        took, probe = map(float, proc.stdout.split())
        setup_times.append(took)
        setup_probes.append(probe)
    instances = w.build(args.workload, args.seed, args.quick)
    paths, digest = w.write_inputs(run_dir, instances)

    if args.workload == "family":
        expected = {inst.id: w.family_answers(inst.n) for inst in instances}
    else:
        expected = json.loads(ANSWERS.read_text())[args.workload]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "backend": _backend(),
        "nproc": _nproc(),
        "commit": _commit(),
        "instances": len(instances),
        "digest": digest,
    }
    print(json.dumps({"stamp": stamp}), flush=True)

    # As many passes as fit, at least one; noise only adds time, so each
    # instance's fastest counts.  The other workloads fit four passes or
    # more in 30 s; `family` fits two when a pass takes at most 15 s (most
    # of it one LP) and one on a slower host, so that its run, too, stays
    # within the run length.
    passes, probes, probed, tracers = [], [], [], []
    attempted, failures, answers = 0, {}, {}
    measure_began = time.perf_counter()
    # per-layer times are left unscaled, so traced runs do not probe
    with Sampler(not args.trace) as sampler:
        while True:
            tracer = Tracer(bool(args.trace))
            times, failed, got, samples, inst_probes = _run_pass(
                w.CERTIFY[args.workload], tracer, sampler, instances, paths, expected
            )
            attempted += len(instances)
            for key, msg in failed.items():
                failures.setdefault(key, []).append(msg)
            answers.update(got)
            passes.append(times)
            probes.append(samples)
            probed.append(inst_probes)
            tracers.append(tracer)
            elapsed = time.perf_counter() - measure_began
            rounds = len(passes)
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break

    if args.trace:
        layers, differ = _combine_layers([t.layers() for t in tracers])
        metrics = _layer_metrics(layers)
        # every span pays the tracer's own cost once
        metrics["trace.overhead_s"] = len(tracers[0].spans) * Tracer.span_cost()
        if args.workload == "family":
            want = sum(w.FAMILY_FLIP_NODES[inst.n] for inst in instances)
            if metrics["flipdist.nodes"] != want:
                differ.append(f"flipdist.nodes is {metrics['flipdist.nodes']}, not the baseline {want}")
        for msg in differ:
            failures.setdefault("counts", []).append(msg)
        with open(run_dir / "spans.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write(fh, traced_pass=i)
        units = PER_LAYER
    else:
        fastest = _fastest(passes, probes, probed)
        metrics = {
            "setup_s": statistics.median(
                t * PROBE_REF_S / pr for t, pr in zip(setup_times, setup_probes)
            ),
            "wall_s": sum(fastest.values()),
            "slowest_instance_s": max(fastest.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    failed = sum(len(v) for v in failures.values())
    for key, msgs in sorted(failures.items()):
        print(f"FAIL {key}: {msgs[0]}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "stamp": stamp,
        "result": result,
        "fail_frac": failed / attempted,
        "passes": passes,
        "probes": probes,
        "instance_probes": probed,
        "setup_times": setup_times,
        "setup_probes": setup_probes,
        "answers": answers,
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; print every metric with its unit."""
    code, combined = 0, {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{workload}: exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        stamp, result = json.loads(lines[-2])["stamp"], json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined[workload] = {"stamp": stamp, "result": result}
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload}  ({stamp['instances']} instances, seed {stamp['seed']}, digest {stamp['digest'][:12]})")
        print(f"  {'fail_frac':34} {fail_frac:12.6g} share")
        for name, m in result["metrics"].items():
            print(f"  {name:34} {m['value']:12.6g} {m['unit']}")
    name = f"all-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (WORK / name).write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(json.dumps({w: c["result"] for w, c in combined.items()}))
    return code


def _load_results(path: str) -> dict:
    """Results per workload from a run's result.json, an `all` file or a trajectory file."""
    data = json.loads(Path(path).read_text())
    if "stamp" in data:
        return {data["stamp"]["workload"]: data}
    return data.get("plain", data)


def compare(a_path: str, b_path: str) -> int:
    """Print B's metrics against A's, per workload; refuse incomparable results."""
    a, b = (_load_results(p) for p in (a_path, b_path))
    code = 0
    for workload in sorted(a.keys() & b.keys()):
        sa, sb = a[workload]["stamp"], b[workload]["stamp"]
        differ = [key for key in ("backend", "digest") if sa[key] != sb[key]]
        for key in differ:
            print(f"{workload}: refusing to compare, {key} {sa[key]} vs {sb[key]}", file=sys.stderr)
        if differ:
            code = 2
            continue
        print(f"{workload}  ({sa['commit'][:12]} -> {sb['commit'][:12]})")
        ma, mb = a[workload]["result"]["metrics"], b[workload]["result"]["metrics"]
        for name in ma:
            if name not in mb:
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:8.3f}x" if va else "        -"
            print(f"  {name:34} {va:12.6g} -> {vb:12.6g} {ma[name]['unit']:6} {ratio}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="family n = 2 and two spheres per pool")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files (a trajectory file gives its plain part)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
