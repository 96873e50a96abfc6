"""The benchmark's quick instances, certified in this process.

`bench/run.py --quick` runs family n = 2 and two spheres per pool; here
each workload's seed-1 quick instances go through the same certify
functions and must give the frozen answers, so a library change that
breaks the benchmark fails the suite first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.CERTIFY))
def test_quick_instances_certify_with_frozen_answers(workload, tmp_path):
    instances = workloads.build(workload, seed=1, quick=True)
    paths, _ = workloads.write_inputs(tmp_path, instances)
    if workload == "family":
        expected = {inst.id: workloads.family_answers(inst.n) for inst in instances}
    else:
        expected = json.loads((BENCH / "answers.json").read_text())[workload]
    tracer = Tracer(True)
    for inst in instances:
        got = tracer.instance(inst.id, workloads.CERTIFY[workload], tracer, inst, paths[inst.id])
        assert got == expected[inst.id], inst.id
    if workload == "family":
        nodes = sum(s.counts.get("nodes", 0) for s in tracer.spans if s.name == "flipdist")
        assert nodes == sum(workloads.FAMILY_FLIP_NODES[inst.n] for inst in instances)
