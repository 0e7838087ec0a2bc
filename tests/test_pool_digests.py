"""``tools/pool_digests.py --diff``: the comparison of two digest files that
shows a change keeps the emitted bytes of every benchmark pool job."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pool_digests.py"


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
