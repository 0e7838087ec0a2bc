"""Benchmark entry point: one closed-loop client, one job at a time, one process.

    python3 perfbench/run.py --workload closed --seed 1 --seconds 10 --trace 0

Each job goes through the CLI's per-job calls, ``vvmf.cli.JobSpec.from_json``
-> ``run`` -> ``emit``, exactly as ``vvmf basis|check|classical --spec`` does,
and is then checked (exception, residual gate, frozen reference).  A failing
job is recorded and the pass goes on.  Passes repeat until ``--seconds`` have
been measured (at least one pass); timings are medians over passes.

The speed of a shared machine drifts by tens of percent within seconds and
between runs, with no steal time reported to the guest.  So the end-to-end
times are reported in seconds of a machine of fixed speed: while a job runs,
a :class:`SpeedSampler` times a fixed piece of mpmath arithmetic every 20 ms,
and each job run's raw seconds are scaled by ``BURST_NOMINAL_S`` over the
mean sample time seen within ``SPEED_WINDOW_S`` of the run (the run itself,
widened around its middle when it is shorter).  A job scheduled several
times counts with the median of its scaled runs.  The sampled arithmetic
shares none of the program's code, so a change to the program cannot move
it.  Raw seconds stay in the job rows and
in the ``calibration`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
bottom-order jobs untraced, then one pass with every layer wrapped by
:mod:`tracer`, and prints the per-layer metrics; every job run untraced must
emit the same bytes when traced.  Per-job rows are printed as ``row {...}``
lines; the last line of standard output is the JSON result.

The program is imported from ``src/`` of the checkout this file sits in; a
directory without it is an error (exit status 1, no result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from mpmath.libmp import from_float, mpc_add, mpc_mul

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: speed-sampler sample time of the machine that reported seconds refer to
BURST_NOMINAL_S = 7.5e-5
#: shortest stretch of samples a job run's speed is averaged over
SPEED_WINDOW_S = 1.0


def import_program():
    """Import vvmf.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "vvmf" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'vvmf'}")
    sys.path.insert(0, str(src))
    import vvmf.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "vvmf").resolve():
        raise SystemExit(f"error: imported vvmf from {cli.__file__}, not from {src}")
    return cli


sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import manifest  # noqa: E402


#: operand of the sampler's fixed arithmetic: mpmath's own complex
#: multiply-add at 664 bits (200 digits), called with an explicit precision
#: so that it never touches mpmath's global context
_BURST_X = (from_float(1.5), from_float(0.25))
_BURST_PREC = 664


class SpeedSampler:
    """Times six complex multiply-adds from a SIGALRM handler every
    ``PERIOD`` seconds, so the samples show how fast the machine runs while
    the program does: the handler runs in the benchmark's own thread,
    between two bytecodes of whatever is executing."""

    PERIOD = 0.02

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def _burst(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = _BURST_X
        for _ in range(6):
            acc = mpc_add(mpc_mul(acc, _BURST_X, _BURST_PREC), _BURST_X, _BURST_PREC)
        self.samples.append((t0, time.perf_counter() - t0))

    def mean(self, start: float = float("-inf"), stop: float = float("inf")) -> float:
        """Mean time of the samples taken between ``start`` and ``stop``."""
        window = [d for t, d in self.samples if start <= t <= stop]
        return statistics.fmean(window) if window else statistics.fmean(
            d for _, d in self.samples)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_job(cli, job: inputs.Job, tol: float, reference: dict, tracer=None) -> check.Outcome:
    """Run one job through the CLI's per-job calls; never raises."""
    if tracer is not None:
        tracer.begin_job(job.route)
    t0 = time.perf_counter()
    started = t0
    try:
        spec = cli.JobSpec.from_json(dict(job.payload))
        env = cli.run(spec)
        text = cli.emit(env)
    except Exception as exc:  # recorded per job; the pass must go on
        out = check.Outcome(job.route, job.order, job.input_id, time.perf_counter() - t0,
                            started)
        out.error = type(exc).__name__
        out.error_layer = check.error_layer(exc)
        return out
    seconds = time.perf_counter() - t0
    out = check.Outcome(job.route, job.order, job.input_id, seconds, started)
    data = text.encode("utf-8")
    out.digest = hashlib.sha256(data).hexdigest()
    out.out_bytes = len(data)
    if env.residuals:
        out.worst_key, out.worst = max(env.residuals.items(), key=lambda kv: kv[1])
    out.gate_ok = env.worst_residual() < tol
    ref = reference.get(job.input_id)
    if ref is not None and "raised" not in ref:
        out.ref_dev, out.ref_problem = check.compare(json.loads(text), ref)
    if tracer is not None:
        out.dps = tracer.job_dps
        tracer.out_bytes += out.out_bytes
    return out


def run_pass(cli, jobs, tol, reference, tracer=None) -> list[check.Outcome]:
    return [run_job(cli, job, tol, reference, tracer) for job in jobs]


def to_nominal(outcomes, sampler: SpeedSampler) -> None:
    """Fill in each outcome's seconds at the nominal machine speed."""
    for o in outcomes:
        pad = max(0.0, SPEED_WINDOW_S - o.seconds) / 2
        burst = sampler.mean(o.started - pad, o.started + o.seconds + pad)
        o.nominal = o.seconds * BURST_NOMINAL_S / burst


def by_job(outcomes) -> dict:
    """Runs of each distinct job, keyed by (input, order)."""
    runs: dict = {}
    for o in outcomes:
        runs.setdefault((o.input_id, o.order), []).append(o)
    return runs


def order_sums(outcomes, timing: str = "seconds") -> tuple[float, float, float]:
    """(wall, top-order, bottom-order) seconds of one pass; a job run more
    than once counts with the median of its runs."""
    times = [(key[1], statistics.median(getattr(o, timing) for o in runs))
             for key, runs in by_job(outcomes).items()]
    top = max(order for order, _ in times)
    bottom = min(order for order, _ in times)
    return (sum(t for _, t in times),
            sum(t for order, t in times if order == top),
            sum(t for order, t in times if order == bottom))


def ok_fraction(outcomes) -> float:
    """Share of distinct jobs none of whose runs failed."""
    runs = by_job(outcomes)
    return sum(not any(o.failed for o in r) for r in runs.values()) / len(runs)


def setup(cli, workload: str, seed: int):
    """Inputs, reference and one untimed warm-up job."""
    jobs = inputs.workload_jobs(workload, seed)
    reference = check.load_reference()
    tol = cli.tolerance()
    run_job(cli, inputs.warmup_job(workload), tol, reference)
    return jobs, reference, tol


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing the whole set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("error: set-up probe failed: "
                             + proc.stderr.decode("utf-8", "replace")[-2000:])
    return statistics.median(times)


def emit_rows(outcomes) -> None:
    for o in outcomes:
        print("row " + json.dumps(o.row(), sort_keys=True))


def end_to_end(cli, workload, seed, seconds) -> tuple[dict, list]:
    setup_s = measure_setup(workload, seed)
    jobs, reference, tol = setup(cli, workload, seed)
    with SpeedSampler() as sampler:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(run_pass(cli, jobs, tol, reference))
        pass_burst = sampler.mean()
    for p in passes:
        to_nominal(p, sampler)
    raw = [order_sums(p) for p in passes]
    nominal = [order_sums(p, "nominal") for p in passes]
    print("calibration " + json.dumps({
        "pass_burst_s": pass_burst,
        "samples": len(sampler.samples),
        "raw": {"wall_s": statistics.median(s[0] for s in raw),
                "hi_order_s": statistics.median(s[1] for s in raw),
                "lo_order_s": statistics.median(s[2] for s in raw),
                "setup_s": setup_s}}, sort_keys=True))
    every = [o for p in passes for o in p]
    values = {
        "wall_s": statistics.median(s[0] for s in nominal),
        "hi_order_s": statistics.median(s[1] for s in nominal),
        "lo_order_s": statistics.median(s[2] for s in nominal),
        "ok_frac": ok_fraction(every),
        # the set-up probes run in child processes; the pass's mean speed
        # is the nearest measurement of the machine the parent has
        "setup_s": setup_s * BURST_NOMINAL_S / pass_burst,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, passes


def per_layer(cli, workload, seed) -> tuple[dict, list, bool]:
    from tracer import Tracer

    jobs, reference, tol = setup(cli, workload, seed)
    bottom = min(j.order for j in jobs)
    plain = run_pass(cli, [j for j in jobs if j.order == bottom], tol, reference)
    tracer = Tracer()
    with tracer:
        traced = run_pass(cli, jobs, tol, reference, tracer)
    first: dict = {}
    same_bytes = all(first.setdefault((o.input_id, o.order), o.digest) == o.digest
                     for o in plain + traced)
    values = tracer.metrics()
    values["trace.overhead_frac"] = order_sums(traced)[2] / order_sums(plain)[2] - 1
    values["check.fail_frac"] = 1 - ok_fraction(traced)
    values["check.resid_max"] = max(o.worst for o in traced)
    values["check.ref_dev_max"] = max((o.ref_dev for o in traced if o.error is None),
                                      default=0.0)
    return values, [traced], same_bytes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.setup_probe:
        setup(cli, args.workload, args.seed)
        return 0

    if args.trace:
        values, passes, same_bytes = per_layer(cli, args.workload, args.seed)
        specs = manifest.PER_LAYER
    else:
        values, passes = end_to_end(cli, args.workload, args.seed, args.seconds)
        same_bytes = True
        specs = [s[:3] for s in manifest.END_TO_END]
    every = [o for p in passes for o in p]
    for p in passes:
        emit_rows(p)
    for o in every:
        if o.silently_wrong:
            print(f"wrong output: {o.route} order {o.order} {o.input_id}: {o.ref_problem}",
                  file=sys.stderr)
    if not same_bytes:
        print("traced and untraced runs emitted different bytes", file=sys.stderr)
    result = {
        "correct": same_bytes and not any(o.silently_wrong for o in every),
        "attempted": len(every),
        "failed": sum(o.failed for o in every),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
