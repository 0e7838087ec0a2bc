"""Two properties of every route's emitted bases, on members 0-2 of each
benchmark pool (``perfbench/inputs.py``):

- prefix: the basis at order 40 is the head of the basis at order 80 in
  every emitted number (q-orders for induction, as its jobs spell them);
- history: the same jobs emit the same bytes run in order in this process
  and in reverse order in one fresh interpreter, so no series, compiled
  step or precision a job leaves behind changes another job's output."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vvmf.cli import JobSpec, emit, run

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                               ROOT / "perfbench" / "inputs.py")
inputs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)
POOLS = inputs.pool_payloads()
ROUTES = ("sym3", "tensor", "cyclic", "noncyclic", "induction")


def job(route: str, member: int, order: int) -> dict:
    return {**POOLS[route][member], "order": order}


@pytest.mark.parametrize("member", range(3))
@pytest.mark.parametrize("route", ROUTES)
def test_low_order_basis_is_the_head_of_the_high_order_one(route, member):
    low, high = (json.loads(emit(run(JobSpec.from_json(job(route, member, order)))))
                 for order in (40, 80))
    assert low["case"] == high["case"] and len(low["basis"]) == len(high["basis"])
    for f, g in zip(low["basis"], high["basis"]):
        assert f["weight"] == g["weight"] and len(f["components"]) == len(g["components"])
        for a, b in zip(f["components"], g["components"]):
            assert a["lead_exponent"] == b["lead_exponent"]
            assert 0 < len(a["coeffs"]) < len(b["coeffs"])
            assert a["coeffs"] == b["coeffs"][:len(a["coeffs"])]


#: runs a JSON list of jobs read from stdin in reverse order and prints the
#: emitted texts as a JSON list, in job order
REVERSED_RUN = """
import json, sys
from vvmf.cli import JobSpec, emit, run
jobs = json.load(sys.stdin)
print(json.dumps([emit(run(JobSpec.from_json(job))) for job in reversed(jobs)][::-1]))
"""


def test_bytes_do_not_depend_on_the_jobs_run_before():
    jobs = [job(route, member, 80) for route in ROUTES for member in range(3)]
    here = [emit(run(JobSpec.from_json(j))) for j in jobs]
    fresh = subprocess.run([sys.executable, "-c", REVERSED_RUN], input=json.dumps(jobs),
                           capture_output=True, text=True, timeout=600,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(fresh.stdout) == here
