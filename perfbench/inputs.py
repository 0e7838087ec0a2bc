"""Seeded job generator for the benchmark workloads.

Every workload is a list of CLI job payloads (the JSON objects that
``vvmf basis|check|classical --spec`` reads).  Inputs come from fixed pools:

* ``sym3`` and ``tensor``: the acceptance grids ``sym3_grid`` and
  ``tensor_grid`` of ``tests/test_acceptance.py``;
* ``cyclic`` and ``noncyclic``: rank-4 exponents from the admissible
  generator of ``tests/test_mlde.py`` (three exponents uniform in
  [-0.3, 0.5), the fourth fixing 3 Tr(L) = m), drawn once from a fixed
  master seed;
* ``induction``: the representation and the local exponents r of
  acceptance criterion 7;
* ``classical``: every named catalog series plus eta powers.

The pools are fixed so that frozen reference coefficients exist for every
member.  A pass runs a fixed subset of each pool: the first ``LOW_INPUTS``
members at the route's bottom order, and one member (the ladder) at the
higher orders.  Members differ in cost by up to a factor of two, so a seeded
subset would make the timings depend on the seed by more than their bounds.
The ladder member is the one with the worst recorded residual at the top
order in the seed program, so the known precision defects show.  Bottom-order
jobs run ``LOW_REPEATS`` times at shuffled positions and count with the
median of their runs: a single job of a tenth of a second varies by tens of
percent on a shared machine.  ``--seed`` orders the jobs of a pass and picks the eta
powers of the catalog workload.

The generator enforces the documented preconditions (T-regular,
irreducible, non-resonant, admissible exponent sums) with its own
arithmetic and never calls into ``vvmf``.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

#: why each workload exists; copied verbatim into BENCHMARK.json
WHY = {
    "closed": "sym3/tensor closed constructions at orders 20/40/80: mpc composition, no solver",
    "recursive": "generic cyclic/noncyclic at 20/40/80 and induction at q2-orders 40/80: solve then substitute",
    "catalog": "check and every classical series at orders 200/400/800: exact-int and double kernel only",
}

#: no exponent gap or T-eigenvalue ratio may come closer than this to the
#: excluded value (an integer gap, a repeated eigenvalue, a vanishing form)
MARGIN = 0.02

LOW_INPUTS = 3
LOW_REPEATS = 5

MASTER_SEED = 1810_09408
GENERIC_POOL = 6
#: (m, d, e) of the admissible generator: 3 Tr(L) = m, m = d mod 3, e != d
#: mod 2; (7, 1, 0) lands in the cyclic case and (8, 5, 0) in the
#: noncyclic one, as in the generic-route tests
GENERIC_CASES = {"cyclic": (7, 1, 0), "noncyclic": (8, 5, 0)}

CLASSICAL_NAMES = (
    "E2", "E4", "E6", "Delta", "j", "K",
    "theta2_4", "theta3_4", "theta4_4", "f", "g", "h", "Z",
)
ETA_POWERS = tuple(m for m in range(-24, 25) if m != 0)

ZETA = cmath.exp(2j * cmath.pi / 3)
XI = cmath.exp(2j * cmath.pi / 6)
INDUCTION_REP = (0, 1, ZETA, ZETA**2, 0.7 + 0.2j)  # (e, zeta1, zeta2, zeta3, a)
INDUCTION_L = (1 / 3 + 0.11, 1 / 3 - 0.11)
INDUCTION_R = (0.27, 0.13 + 0.21j, 0.41, 0.05, 0.33 - 0.14j)


class PreconditionError(ValueError):
    """A pool member violates a documented precondition."""


@dataclass(frozen=True)
class Job:
    """One CLI job: ``route`` and ``order`` label the timing rows (induction
    is labelled by its q2-order), ``input_id`` keys the frozen reference."""

    route: str
    order: int
    input_id: str
    payload: dict


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

def _int_distance(z: complex) -> float:
    z = complex(z)
    return abs(z - round(z.real))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise PreconditionError(what)


def _check_rank2(r1: complex, r2: complex) -> None:
    x, y = cmath.exp(2j * cmath.pi * r1), cmath.exp(2j * cmath.pi * r2)
    six = 6 * (r1 + r2)
    _require(_int_distance(six) < 1e-12, f"x*y must be a sixth root of unity: {r1}, {r2}")
    _require(_int_distance(r1 - r2) > MARGIN, f"T-regular, non-resonant: {r1 - r2}")
    _require(abs(x * x - x * y + y * y) > MARGIN, "irreducible: x^2 - xy + y^2 != 0")


def _check_gaps(exponents, what: str) -> None:
    for i, a in enumerate(exponents):
        for b in exponents[i + 1:]:
            _require(_int_distance(a - b) > MARGIN, f"{what}: gap {a - b} is near an integer")


def check_sym3(r: tuple) -> None:
    _check_rank2(*r)
    r1, r2 = r
    _check_gaps((3 * r1, 2 * r1 + r2, r1 + 2 * r2, 3 * r2), "Sym^3 irreducible, non-resonant")


def check_tensor(p: tuple, q: tuple) -> None:
    _check_rank2(*p)
    _check_rank2(*q)
    _check_gaps([a + b for a in p for b in q], "tensor irreducible, non-resonant")


def check_generic(eigs: tuple, m: int, d: int, e: int) -> None:
    _require(abs(3 * sum(eigs) - m) < 1e-9, "3 Tr(L) = m")
    _require((m - d) % 3 == 0, "3 Tr(L) = d mod 3")
    _require((e - d) % 2 == 1, "parity e differs from d mod 2")
    _check_gaps(eigs, "T-regular, non-resonant")


def check_induction(r: complex) -> None:
    e, z1, z2, z3, a = INDUCTION_REP
    _require(abs(z1 + z2 + z3) < 1e-9, "the orbit representative restricts from Gamma")
    for j in (1, 2):
        zj = ZETA**j
        t1, t2, t3, ta = z1 * zj, z2 * zj, z3 * zj**2, a * zj**2
        _require(abs(t1 + t2 + t3) > MARGIN, f"beta^{j} twist does not restrict")
        excluded = (-1) ** e * (t1 * t2 + t2 * t3 + t3**2) / (t1 - t2)
        _require(abs(ta - excluded) > MARGIN, f"beta^{j} twist is irreducible")
    _require(abs(r) > MARGIN, "u != 0")
    _require(_int_distance(2 * r) > MARGIN, "local exponents +-r are non-resonant")
    _check_gaps(INDUCTION_L, "subgroup exponents are non-resonant")


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _pair(s: int, delta: complex) -> tuple:
    return ((s / 6 + delta) / 2, (s / 6 - delta) / 2)


def sym3_pool() -> list[tuple]:
    deltas = [0.21, 0.29, 0.37 + 0.05j, 0.41, 0.23 - 0.11j, 0.44]
    return [_pair(s, deltas[i % len(deltas)])
            for i, s in enumerate((1, 2, 3, 4, 5, 7, 8, 10, 11, 13))]


def tensor_pool() -> list[tuple]:
    specs = [
        (1, 0.21, 2, 0.13), (2, 0.17, 3, 0.29), (4, 0.31, 1, 0.23),
        (5, 0.13 + 0.07j, 2, 0.41), (3, 0.37, 3, 0.19), (1, 0.43, 4, 0.27),
        (2, 0.29 - 0.06j, 5, 0.11), (6, 0.23, 2, 0.37), (4, 0.19, 6, 0.31),
        (7, 0.41, 1, 0.29),
    ]
    return [(_pair(s1, d1), _pair(s2, d2)) for s1, d1, s2, d2 in specs]


def generic_pool(case: str) -> list[tuple]:
    m, d, e = GENERIC_CASES[case]
    rng = random.Random(f"{MASTER_SEED}-{case}")
    out = []
    while len(out) < GENERIC_POOL:
        es = [rng.uniform(-0.3, 0.5) for _ in range(3)]
        eigs = tuple(es + [m / 3 - sum(es)])
        try:
            check_generic(eigs, m, d, e)
        except PreconditionError:
            continue
        out.append(eigs)
    return out


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _rank2_json(r1, r2) -> dict:
    return {"kind": "rank2",
            "x": _c(cmath.exp(2j * cmath.pi * r1)),
            "y": _c(cmath.exp(2j * cmath.pi * r2))}


def _exponents_json(eigs, group="Gamma") -> dict:
    return {"eigenvalues": [_c(v) for v in eigs], "group": group}


def _u_of_r(r: complex) -> complex:
    # inverse of the indicial relation r^2 = -16 e^{2 pi i/6} u
    return -(r * r) / (16 * XI)


def pool_payloads() -> dict[str, list[dict]]:
    """Order-free job payloads of every pool member, checked against the
    preconditions; the key is the route, the index the member id."""
    pools: dict[str, list[dict]] = {}
    sym3 = []
    for r in sym3_pool():
        check_sym3(r)
        sym3.append({"command": "basis", "construction": "sym3",
                     "reps": [_rank2_json(*r)], "exponents": [_exponents_json(r)]})
    pools["sym3"] = sym3
    tensor = []
    for p, q in tensor_pool():
        check_tensor(p, q)
        tensor.append({"command": "basis", "construction": "tensor",
                       "reps": [_rank2_json(*p), _rank2_json(*q)],
                       "exponents": [_exponents_json(p), _exponents_json(q)]})
    pools["tensor"] = tensor
    for case, (m, d, e) in GENERIC_CASES.items():
        members = []
        for eigs in generic_pool(case):
            evs = [cmath.exp(2j * cmath.pi * v) for v in eigs]
            rep = {"kind": "rank4", "d": d, "e": e}
            rep.update({k: _c(v) for k, v in zip("xyzw", evs)})
            members.append({"command": "basis", "rep": rep,
                            "exponents": _exponents_json(eigs)})
        pools[case] = members
    e, z1, z2, z3, a = INDUCTION_REP
    induction = []
    for r in INDUCTION_R:
        check_induction(r)
        induction.append({
            "command": "basis", "construction": "induction",
            "reps": [{"kind": "g-rank2", "e": e, "zeta1": _c(z1), "zeta2": _c(z2),
                      "zeta3": _c(z3), "a": _c(a)}],
            "exponents": [_exponents_json(INDUCTION_L, "G")],
            "u": _c(_u_of_r(r)),
        })
    pools["induction"] = induction
    pools["classical"] = (
        [{"command": "classical", "name": n} for n in CLASSICAL_NAMES]
        + [{"command": "classical", "name": f"Eta^{m}"} for m in ETA_POWERS]
    )
    pools["check"] = [{"command": "check"}]
    return pools


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: pool member run at the higher orders: the worst top-order residual at
#: seed (sym3 2.0e-6 and tensor 0.37 fail the 1e-9 gate at order 80, tensor
#: already at 40; cyclic 1.9e-11, noncyclic 4.7e-12, induction 8.8e-12)
LADDER = {"sym3": 3, "tensor": 5, "cyclic": 2, "noncyclic": 3, "induction": 3}

#: lowest order at which each route appears; references are frozen there
BASE_ORDER = {"sym3": 20, "tensor": 20, "cyclic": 20, "noncyclic": 20,
              "induction": 40, "classical": 200, "check": 200}


def make_job(route: str, index: int, order: int, pools: dict) -> Job:
    payload = dict(pools[route][index])
    # induction jobs carry the q-order; rows are labelled by the q2-order
    payload["order"] = order // 2 if route == "induction" else order
    return Job(route, order, f"{route}:{index}", payload)


def _route(route: str, pools: dict, orders: tuple) -> list[Job]:
    """The bottom-order subset, repeated, and the ladder member above it."""
    bottom = [make_job(route, i, orders[0], pools) for i in range(LOW_INPUTS)]
    return bottom * LOW_REPEATS + _ladder(route, pools, orders[1:])


def _ladder(route: str, pools: dict, orders: tuple) -> list[Job]:
    return [make_job(route, LADDER[route], o, pools) for o in orders]


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The job schedule of one pass over ``workload`` for ``seed``; a job
    listed more than once is timed by the median of its runs."""
    rng = random.Random(f"{workload}-{seed}")
    pools = pool_payloads()
    if workload == "closed":
        jobs = _route("sym3", pools, (20, 40, 80)) + _route("tensor", pools, (20, 40, 80))
    elif workload == "recursive":
        jobs = (_route("cyclic", pools, (20, 40, 80))
                + _route("noncyclic", pools, (20, 40, 80))
                + _ladder("induction", pools, (40, 80)))
    elif workload == "catalog":
        etas = [rng.choice([m for m in ETA_POWERS if m > 0]),
                rng.choice([m for m in ETA_POWERS if m < 0])]
        picks = list(range(len(CLASSICAL_NAMES)))
        picks += [len(CLASSICAL_NAMES) + ETA_POWERS.index(m) for m in etas]
        jobs = []
        for order in (200, 400, 800):
            batch = [make_job("check", 0, order, pools)]
            batch += [make_job("classical", i, order, pools) for i in picks]
            jobs += batch * (LOW_REPEATS if order == 200 else 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def warmup_job(workload: str) -> Job:
    """A small untimed job that touches the workload's code paths."""
    pools = pool_payloads()
    route = {"closed": "sym3", "recursive": "cyclic", "catalog": "classical"}[workload]
    order = {"closed": 8, "recursive": 8, "catalog": 50}[workload]
    return make_job(route, 0, order, pools)

