"""``tools/pool_digests.py``: the digests of every benchmark pool job are
the same in any two fresh interpreters and equal the committed ones of
``tests/pool_digests.txt`` (and those of the high-order section,
``tests/high_digests.txt``), and ``--diff``, the comparison of two
digest files, shows a change keeps the emitted bytes of every job."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vvmf.cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pool_digests.py"
#: the tool's output for the committed code, and its high-order section
COMMITTED = Path(__file__).resolve().parent / "pool_digests.txt"
HIGH = Path(__file__).resolve().parent / "high_digests.txt"


@pytest.fixture
def pool_digests(monkeypatch):
    # the tool puts perfbench/ on sys.path to import its job pools; the
    # monkeypatched copy takes that insertion and is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("pool_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, lines: dict) -> str:
    path.write_text("".join(f"{job} {' '.join(digests)}\n" for job, digests in lines.items()))
    return str(path)


#: per job, the digest of its emitted text and of that text with its
#: residual values nulled
DIGESTS = {"check:0@200": ("a1", "a2"), "check:0@800": ("b1", "b2"), "sym3:0@20": ("c1", "c2")}


def test_identical_files_differ_nowhere(pool_digests, tmp_path, capsys):
    first = write(tmp_path / "a.txt", DIGESTS)
    second = write(tmp_path / "b.txt", DIGESTS)
    assert pool_digests.main(["--diff", first, second]) == 0
    assert capsys.readouterr().out == "3 and 3 jobs, 0 differ, 0 of them only in residual values\n"


def test_a_changed_and_a_missing_job_are_named(pool_digests, tmp_path, capsys):
    changed = {**DIGESTS, "check:0@800": ("ff", "fe")}
    del changed["sym3:0@20"]
    first = write(tmp_path / "a.txt", DIGESTS)
    second = write(tmp_path / "b.txt", changed)
    assert pool_digests.main(["--diff", first, second]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check:0@800: b1 != ff",
        "sym3:0@20: c1 != missing",
        "3 and 2 jobs, 2 differ, 0 of them only in residual values",
    ]


def test_a_job_that_differs_only_in_residual_values_is_counted(pool_digests, tmp_path,
                                                                capsys):
    # the second digests agree: the emitted text differs in residual values alone
    changed = {**DIGESTS, "check:0@200": ("a9", "a2"), "check:0@800": ("b9", "b9")}
    first = write(tmp_path / "a.txt", DIGESTS)
    second = write(tmp_path / "b.txt", changed)
    assert pool_digests.main(["--diff", first, second]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check:0@200: a1 != a9 (residual values only)",
        "check:0@800: b1 != b9",
        "3 and 3 jobs, 2 differ, 1 of them only in residual values",
    ]


def fake_cli(text):
    """The calls :func:`digests` makes of ``vvmf.cli``, on a canned emitted
    text, or raising a canned error."""
    def run(job):
        if isinstance(text, Exception):
            raise text
        return job

    return SimpleNamespace(JobSpec=SimpleNamespace(from_json=dict), run=run,
                           emit=lambda env: text, canonical_json=vvmf.cli.canonical_json)


def test_second_digest_nulls_residual_values_and_keeps_keys(pool_digests):
    job = SimpleNamespace(payload={})
    text = '{"basis":[1.5],"job":{},"residuals":{"a":1e-15,"b":2e-16}}\n'
    blind = '{"basis":[1.5],"job":{},"residuals":{"a":null,"b":null}}\n'
    assert pool_digests.digests(fake_cli(text), job) == (pool_digests.sha256(text),
                                                       pool_digests.sha256(blind))
    raised = pool_digests.digests(fake_cli(ValueError("bad")), job)
    assert raised == (pool_digests.sha256("raised ValueError: bad"),) * 2


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory) -> list:
    """The tool's output from two concurrent fresh interpreters, with
    PYTHONHASHSEED 1 and 2, as two files."""
    runs = [subprocess.Popen([sys.executable, str(TOOL)], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONHASHSEED=str(seed)))
            for seed in (1, 2)]
    outputs = []
    for seed, run in zip((1, 2), runs):
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, err
        outputs.append(tmp_path_factory.mktemp("digests") / f"seed{seed}.txt")
        outputs[-1].write_text(out)
    return outputs


def test_two_fresh_interpreters_digest_every_job_alike(pool_digests, fresh_runs, capsys):
    # string hashing and the fingerprint's random prime and point differ
    # between the two runs; no emitted byte may depend on them
    assert pool_digests.main(["--diff", *map(str, fresh_runs)]) == 0
    jobs = len(pool_digests.jobs())
    assert capsys.readouterr().out == (
        f"{jobs} and {jobs} jobs, 0 differ, 0 of them only in residual values\n")
    assert jobs == 607


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the committed digests are of x86-64's 64-bit long double; "
                           "other long double types change the last bits of the double check")
def test_every_job_emits_the_committed_bytes(pool_digests, fresh_runs, capsys):
    # the same run against tests/pool_digests.txt: a change that keeps every
    # emitted byte passes as it is, and one that changes bytes on purpose
    # commits the tool's new output there
    status = pool_digests.main(["--diff", str(COMMITTED), str(fresh_runs[0])])
    assert status == 0, capsys.readouterr().out


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the committed digests are of x86-64's 64-bit long double; "
                           "other long double types change the last bits of the double check")
def test_high_order_ladder_emits_the_committed_bytes(pool_digests, tmp_path, capsys):
    # every ladder member at order 800 (induction at q2-order 800) and the
    # cyclic one at 1600, where the q-line recursion and the double check
    # do the most work and a changed last bit of the step's rounding would
    # show first, against tests/high_digests.txt
    run = subprocess.run([sys.executable, str(TOOL), "--high"], capture_output=True,
                         text=True, timeout=900)
    assert run.returncode == 0, run.stderr
    fresh = tmp_path / "high.txt"
    fresh.write_text(run.stdout)
    status = pool_digests.main(["--diff", str(HIGH), str(fresh)])
    assert status == 0, capsys.readouterr().out
    assert len(pool_digests.high_jobs()) == 6
