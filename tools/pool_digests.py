"""Digest of every benchmark pool job's emitted bytes, to show that a change
keeps them.

    python3 tools/pool_digests.py > digests.txt
    python3 tools/pool_digests.py --high > high.txt
    python3 tools/pool_digests.py --diff parent.txt change.txt

The first form runs, in one process and in a fixed order, every pool member
of ``perfbench/inputs.py`` at each order the benchmark pools are checked at
(302 jobs: sym3, tensor, cyclic and noncyclic at orders 20/40/80, induction
at q2-orders 10/20/40/80, every classical name and ``check`` at
200/400/800), each route's ladder member at order 400 (induction at
q2-order 400; 5 jobs), and the commands that stop short of a basis (150
jobs): ``minimal`` at orders 20/40/80 for the rank-2 representation of each
sym3 member, each factor of each tensor member and each cyclic and
noncyclic member, and ``coeffs`` and ``classify`` for each cyclic and
noncyclic member; and the other rank-2 jobs of the same rank-2
representations (150 jobs): ``classify`` and ``coeffs``, and ``basis`` at
orders 20/40/80; 607 jobs in all.  Each job goes through
``emit(run(JobSpec.from_json(job)))`` of the ``src/`` of the checkout this
file sits in, as ``perfbench/run.py`` imports it.  It prints one line per
job, ``<route>:<member>@<order>`` (no order for ``coeffs`` and
``classify``, which take none), the SHA-256 of the emitted text, or of
``raised <class>: <message>`` for a job that raises, and a second SHA-256:
of the emitted text with every ``residuals`` value replaced by null and
the keys kept (a raising job repeats its first digest).  ``--diff``
compares two such outputs line by line, names each job that differs and
whether it differs only in residual values (its second digests agree),
prints the counts of both, and exits 1 when any job differs or is missing
from one of them.

``--high`` prints the same lines for the high-order section instead: each
route's ladder member at order 800 (induction at q2-order 800) and the
cyclic ladder member at order 1600 (6 jobs, about 3 s on a 2-core x86-64
VM), where the q-line recursion and the double check do most of their
work.

``tests/pool_digests.txt`` holds the first form's output for the
committed code, and ``tests/test_pool_digests.py`` compares a fresh run
with it on x86-64's 64-bit long double; ``tests/high_digests.txt`` holds
the ``--high`` output, compared there too.  A change that
changes emitted bytes on purpose writes the new output there:

    python3 tools/pool_digests.py > tests/pool_digests.txt
    python3 tools/pool_digests.py --high > tests/high_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402

#: orders at which every member of a pool is digested; induction jobs are
#: labelled by their q2-order, as in the benchmark
POOL_ORDERS = {
    "sym3": (20, 40, 80), "tensor": (20, 40, 80),
    "cyclic": (20, 40, 80), "noncyclic": (20, 40, 80),
    "induction": (10, 20, 40, 80),
    "classical": (200, 400, 800), "check": (200, 400, 800),
}
LADDER_ORDER = 400
#: orders of the minimal-form jobs, and of the rank-2 basis jobs
MINIMAL_ORDERS = (20, 40, 80)
#: orders of the high-order section: every ladder member at the first, the
#: cyclic one at the second too
HIGH_ORDERS = (800, 1600)


def jobs() -> list:
    """Every job digested, in the order they run."""
    pools = inputs.pool_payloads()
    out = [inputs.make_job(route, index, order, pools)
           for route, orders in POOL_ORDERS.items()
           for order in orders
           for index in range(len(pools[route]))]
    out += [inputs.make_job(route, index, LADDER_ORDER, pools)
            for route, index in inputs.LADDER.items()]
    return out + short_jobs(pools) + rank2_jobs(pools)


def high_jobs() -> list:
    """The high-order section's jobs, in the order they run."""
    pools = inputs.pool_payloads()
    low, high = HIGH_ORDERS
    out = [inputs.make_job(route, index, low, pools) for route, index in inputs.LADDER.items()]
    return out + [inputs.make_job("cyclic", inputs.LADDER["cyclic"], high, pools)]


def rank2_members(pools: dict) -> list:
    """(label, rep, exponents) of the rank-2 representation of each sym3
    member and each tensor factor, labelled ``<member>.<factor>``."""
    members = [(f"sym3:{i}", p["reps"][0], p["exponents"][0])
               for i, p in enumerate(pools["sym3"])]
    return members + [(f"tensor:{i}.{j}", p["reps"][j], p["exponents"][j])
                      for i, p in enumerate(pools["tensor"]) for j in range(2)]


def short_jobs(pools: dict) -> list:
    """The minimal, coeffs and classify jobs of the pool members' own
    representations and exponents (:func:`rank2_members`)."""
    members = rank2_members(pools)
    generic = [(f"{route}:{i}", p["rep"], p["exponents"])
               for route in ("cyclic", "noncyclic") for i, p in enumerate(pools[route])]
    out = [inputs.Job("minimal", order, f"minimal:{name}",
                      {"command": "minimal", "rep": rep, "exponents": L, "order": order})
           for order in MINIMAL_ORDERS for name, rep, L in members + generic]
    out += [inputs.Job(command, None, f"{command}:{name}",
                       {"command": command, "rep": rep, "exponents": L})
            for command in ("coeffs", "classify") for name, rep, L in generic]
    return out


def rank2_jobs(pools: dict) -> list:
    """The classify, coeffs and basis jobs of the rank-2 representations of
    :func:`rank2_members`, after every other job, so that the lines before
    them keep their order."""
    members = rank2_members(pools)
    out = [inputs.Job(command, None, f"{command}:{name}",
                      {"command": command, "rep": rep, "exponents": L})
           for command in ("classify", "coeffs") for name, rep, L in members]
    return out + [inputs.Job("basis", order, f"basis:{name}",
                             {"command": "basis", "rep": rep, "exponents": L, "order": order})
                  for order in MINIMAL_ORDERS for name, rep, L in members]


def digests(cli, job) -> tuple[str, str]:
    """The digests of a job's emitted text and of that text with its
    residual values nulled."""
    try:
        text = cli.emit(cli.run(cli.JobSpec.from_json(dict(job.payload))))
    except Exception as exc:  # a job's failure is part of its output
        text = f"raised {type(exc).__name__}: {exc}"
        return (sha256(text),) * 2
    data = json.loads(text)
    data["residuals"] = dict.fromkeys(data["residuals"])
    return sha256(text), sha256(cli.canonical_json(data))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read(path: str) -> dict:
    """Per job, its digests."""
    with open(path, encoding="utf-8") as handle:
        return {job: tuple(rest) for job, *rest in (line.split() for line in handle if line.strip())}


def diff(a: str, b: str) -> int:
    first, second = read(a), read(b)
    differ = residual_only = 0
    for key in sorted(first.keys() | second.keys()):
        x, y = first.get(key, ("missing",) * 2), second.get(key, ("missing",) * 2)
        if x != y:
            differ += 1
            only = len(x) == len(y) == 2 and x[1] == y[1]  # a missing job's reads "missing"
            residual_only += only
            print(f"{key}: {x[0]} != {y[0]}" + (" (residual values only)" if only else ""))
    print(f"{len(first)} and {len(second)} jobs, {differ} differ, "
          f"{residual_only} of them only in residual values")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two outputs of this script")
    parser.add_argument("--high", action="store_true",
                        help="digest the high-order section instead of the pools")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    import run

    cli = run.import_program()
    for job in high_jobs() if args.high else jobs():
        at = "" if job.order is None else f"@{job.order}"
        print(f"{job.input_id}{at}", *digests(cli, job), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
