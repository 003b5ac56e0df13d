"""The benchmark's correctness rules on its optimizer jobs, run in-process.

For the first canonical variant of every `plane-optimize` and `torus` slot, the CLI's
output must pass `perfbench.check.problems` against the committed reference: the rule
a benchmark run applies to every job it times.
"""

import json
import sys
from pathlib import Path

import pytest

from specdist.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # perfbench/ stays as committed
try:
    from perfbench import check, workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("workload", ["plane-optimize", "torus"])
def test_first_variant_of_every_slot_passes_the_benchmark_check(workload, tmp_path,
                                                                 monkeypatch, capsys):
    reference = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    monkeypatch.chdir(tmp_path)  # where the jobs' input files are written
    for slot in workloads.slots(workload):
        job = workloads.materialize(slot[0])
        workloads.write_inputs([job], tmp_path)
        code = main(list(job.argv))
        assert check.problems(job.cmd, capsys.readouterr().out, code,
                              reference[job.key]) == [], job.key
