"""Tests of the benchmark itself: wrong outputs count as failed jobs, and the
smoke workload (classify Z2/2 plus every corpus layer on z2_m2) produces the
whole output schema in seconds.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

jobs.import_package()

from neargroup import io, tuples  # noqa: E402
from neargroup.solutions import MNSolution  # noqa: E402


def failed(job_list):
    names = []
    for job in job_list:
        try:
            problems = job.check(job.run())
        except Exception as exc:
            problems = [repr(exc)]
        if problems:
            names.append(job.name)
    return names


def test_perturbed_corpus_entry_fails():
    s = io.load_bundled("z3_m3")
    assert failed(jobs.corpus_entry_jobs(
        "z3_m3", s, tuples.to_tuple(s, check=False), oracle=True)) == []
    bad = MNSolution(s.group, s.bichar, s.form, s.b * (1 + 1e-6), s.c)
    names = failed(jobs.corpus_entry_jobs(
        "z3_m3", bad, tuples.to_tuple(bad, check=False), oracle=True))
    assert "z3_m3 residual" in names


def test_wrong_class_count_fails():
    assert failed([jobs.classify_job((2,), 2, 1, seed=1)]) == []
    assert failed([jobs.classify_job((2,), 2, 2, seed=1)]) == ["classify Z2/2"]


def test_smoke_output_schema():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=170,
            check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(res["metrics"][m["name"]]["value"], float)
