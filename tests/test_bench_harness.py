"""bench/harness.py on two trivial rows, with both sides at this checkout:
the side that goes first alternates, the record has one shape, and the
sample rule gives a row whose first sample takes a second 3 samples.  A
fresh-process row reports that process's own peak memory, and a checkout's
commit is recorded only when it is the top of a git work tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import harness  # noqa: E402

SCRIPT = '''
"""Two rows of build_ring(Cyclic(4)); a stubbed timer makes the second take 1.5 s."""
import os
import sys
import time

sys.path.insert(0, {bench!r})
import harness


def rows():
    from gradedrings.finring import Cyclic, build_ring

    ahead = [0.0]  # seconds the stubbed timer runs ahead of perf_counter
    harness.perf_counter = lambda: time.perf_counter() + ahead[0]

    def slow_build():
        build_ring(Cyclic(4))
        ahead[0] += 1.5

    def logged(name, work):
        def prepare():
            with open({log!r}, "a") as fh:
                fh.write(f"{{os.getpid()}} {{name}}\\n")
            return work
        return harness.timed(prepare)

    return {{
        "build_ring Z/4": logged("build_ring Z/4", lambda: build_ring(Cyclic(4))),
        "slow build_ring Z/4": logged("slow build_ring Z/4", slow_build),
    }}


if __name__ == "__main__":
    harness.main(rows, __doc__, "unused.json")
'''


def test_harness_alternates_sides_and_writes_one_record_shape(tmp_path):
    log, out, script = tmp_path / "order.log", tmp_path / "record.json", tmp_path / "rows.py"
    script.write_text(SCRIPT.format(bench=str(ROOT / "bench"), log=str(log)))
    subprocess.run(
        [sys.executable, str(script), "--before", str(ROOT), "--after", str(ROOT),
         "--out", str(out)],
        check=True, timeout=60,
    )
    record = json.loads(out.read_text())

    assert list(record) == ["what", "machine", "before", "after", "rows"]
    assert record["what"].startswith("Two rows of build_ring")
    assert set(record["machine"]) == {"python", "implementation", "machine", "cpus"}
    assert record["before"]["commit"] == record["after"]["commit"]
    assert list(record["rows"]) == ["build_ring Z/4", "slow build_ring Z/4"]
    for name, count in (("build_ring Z/4", 15), ("slow build_ring Z/4", 3)):
        row = record["rows"][name]
        assert list(row) == ["before", "after", "after_over_before"]
        for side in ("before", "after"):
            summary = row[side]
            assert list(summary) == ["median", "quartiles", "samples"]
            assert len(summary["samples"]) == count
            assert all(list(sample) == ["s"] for sample in summary["samples"])
            q1, q3 = summary["quartiles"]["s"]
            assert q1 <= summary["median"]["s"] <= q3
        medians = [row[side]["median"]["s"] for side in ("before", "after")]
        assert row["after_over_before"] == round(medians[1] / medians[0], 3)
    assert record["rows"]["slow build_ring Z/4"]["before"]["median"]["s"] >= 1.5

    # each row sample by sample; the side that goes first alternates
    lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
    before_pid = lines[0][0]
    at = 0
    for name, count in (("build_ring Z/4", 15), ("slow build_ring Z/4", 3)):
        for i in range(count):
            (first, first_row), (second, second_row) = lines[at:at + 2]
            assert first_row == second_row == name
            assert first != second
            assert (first == before_pid) == (i % 2 == 0)
            at += 2
    assert at == len(lines)


def test_fresh_reports_the_process_own_peak():
    # a process forked by a large one keeps its resident peak across exec;
    # the sample must be that of the small process, not of this one
    held = b"\x01" * (64 << 20)
    sample = harness.fresh(["-c", "print('unseen')"])()
    assert list(sample) == ["cpu_s", "wall_s", "peak_rss_mb", "exit"]
    assert sample["exit"] == 0 and sample["cpu_s"] > 0 and sample["wall_s"] > 0
    assert sample["peak_rss_mb"] < 40 < len(held) / 2**20
    assert harness.fresh(["-c", "raise SystemExit(3)"])()["exit"] == 3


def test_commit_is_read_only_at_the_top_of_a_work_tree(tmp_path, capsys):
    # an unpacked `git archive` copy inside another work tree must not
    # record that tree's commit
    repo, copy = tmp_path / "repo", tmp_path / "repo" / "archive"
    copy.mkdir(parents=True)
    (copy / "file").write_text("x\n")

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    assert harness._commit(str(repo)) == git("rev-parse", "--short", "HEAD")
    assert capsys.readouterr().err == ""
    assert harness._commit(str(copy)) == "not a git work tree"
    assert f"{copy} is not a git work tree" in capsys.readouterr().err
