"""``tools/pool_digests.py``: the digests of every benchmark pool job are
the same in any two fresh interpreters and equal the committed ones of
``tests/pool_digests.txt``, and ``--diff``, the comparison of two digest
files, shows a change keeps the emitted bytes of every job."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pool_digests.py"
#: the tool's output for the committed code
COMMITTED = Path(__file__).resolve().parent / "pool_digests.txt"


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
    path.write_text("".join(f"{job} {digest}\n" for job, digest in lines.items()))
    return str(path)


DIGESTS = {"check:0@200": "a1", "check:0@800": "b2", "sym3:0@20": "c3"}


def test_identical_files_differ_nowhere(pool_digests, tmp_path, capsys):
    first = write(tmp_path / "a.txt", DIGESTS)
    second = write(tmp_path / "b.txt", DIGESTS)
    assert pool_digests.main(["--diff", first, second]) == 0
    assert capsys.readouterr().out == "3 and 3 jobs, 0 differ\n"


def test_a_changed_and_a_missing_job_are_named(pool_digests, tmp_path, capsys):
    changed = {**DIGESTS, "check:0@800": "ff"}
    del changed["sym3:0@20"]
    first = write(tmp_path / "a.txt", DIGESTS)
    second = write(tmp_path / "b.txt", changed)
    assert pool_digests.main(["--diff", first, second]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "check:0@800: b2 != ff",
        "sym3:0@20: c3 != missing",
        "3 and 2 jobs, 2 differ",
    ]


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
    assert capsys.readouterr().out == f"{jobs} and {jobs} jobs, 0 differ\n"
    assert jobs == 457


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the committed digests are of x86-64's 64-bit long double; "
                           "other long double types change the last bits of the double check")
def test_every_job_emits_the_committed_bytes(pool_digests, fresh_runs, capsys):
    # the same run against tests/pool_digests.txt: a change that keeps every
    # emitted byte passes as it is, and one that changes bytes on purpose
    # commits the tool's new output there
    status = pool_digests.main(["--diff", str(COMMITTED), str(fresh_runs[0])])
    assert status == 0, capsys.readouterr().out
