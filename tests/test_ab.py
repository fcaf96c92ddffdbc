import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_summary_of_alternated_pairs():
    base = [1.0, 1.2, 0.9, 1.1, 1.0]
    change = [0.7, 0.8, 0.9, 0.75, 1.1]
    s = ab.summarize(base, change, "lower")
    assert s["base"]["median"] == 1.0 and s["change"]["median"] == 0.8
    assert (s["base"]["q1"], s["base"]["q3"]) == (1.0, 1.1)
    assert (s["change"]["q1"], s["change"]["q3"]) == (0.75, 0.9)
    assert s["ratio"] == pytest.approx(0.8)
    # pair 3 ties and pair 5 is lost: a tie counts for neither side
    assert (s["pairs"], s["wins"], s["losses"]) == (5, 3, 1)
    assert s["beyond_base_iqr"]                  # |0.8 - 1.0| > 1.1 - 1.0
    assert s["base"]["values"] == base and s["change"]["values"] == change


def test_summary_reads_the_better_direction():
    s = ab.summarize([10.0, 10.0, 10.0], [11.0, 10.0, 9.0], "higher")
    assert (s["wins"], s["losses"]) == (1, 1)
    assert not s["beyond_base_iqr"]
    one = ab.summarize([2.0], [1.0])
    assert one["base"]["q1"] == one["base"]["q3"] == 2.0 and one["wins"] == 1
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.summarize([1.0], [1.0], "faster")


def test_a_failed_run_stops_the_comparison(monkeypatch):
    # Pair 1 runs base then change, pair 2 change then base: the third run,
    # pair 2's change, prints "correct": false and exits 1.
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        ok = len(calls) != 3
        return {"correct": ok, "attempted": 4, "failed": 0 if ok else 1,
                "exit_code": 0 if ok else 1, "digest": "d",
                "metrics": {name: {"value": 1.0} for name in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(ab, "run_once", run_once)
    with pytest.raises(RuntimeError, match=r"^sim_flip seed 7 pair 2/3: the change run failed "
                                           r"\(exit code 1, 1 of 4 passes"):
        ab.compare("sim_flip", 7, 3, 1.0, Path("base"), Path("change"))
    assert calls == [Path("base"), Path("change"), Path("change")]


def test_pass_counts_are_recorded_per_side_and_summarized(monkeypatch):
    # Pair 1 runs base then change, pair 2 change then base, pair 3 base then change.
    attempted = iter([10, 14, 15, 11, 12, 13])
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout)
        return {"correct": True, "attempted": next(attempted), "failed": 0, "exit_code": 0,
                "digest": "d", "metrics": {name: {"value": 1.0}
                                           for name in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(ab, "run_once", run_once)
    res = ab.compare("sim_unwind", 1, 3, 1.0, Path("base"), Path("change"))
    assert calls == [Path("base"), Path("change"), Path("change"), Path("base"), Path("base"), Path("change")]
    assert res["passes"] == {"base": [10, 11, 12], "change": [14, 15, 13]}
    lines = ab.summary({"sim_unwind@seed1": res})
    assert lines[0] == "sim_unwind@seed1 passes: base median 11 change median 14"
    assert lines[1].startswith("sim_unwind@seed1 wall_s: base 1 change 1 ratio 1.000 wins 0/3")


def test_summary_says_whether_the_first_pass_digests_agree(monkeypatch):
    # Pair 1 runs base then change, pair 2 change then base: the third run,
    # pair 2's change, reports another digest than the other three.
    digests = iter(["aa", "aa", "bb", "aa"])

    def run_once(checkout, workload, seed, seconds):
        return {"correct": True, "attempted": 3, "failed": 0, "exit_code": 0,
                "digest": next(digests),
                "metrics": {name: {"value": 1.0} for name in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(ab, "run_once", run_once)
    differ = ab.compare("design_oct", 1, 2, 1.0, Path("base"), Path("change"))
    assert differ["digests"] == {"base": ["aa"], "change": ["aa", "bb"]}
    same = {**differ, "digests": {"base": ["aa"], "change": ["aa"]}}
    other = {**differ, "digests": {"base": ["aa"], "change": ["bb"]}}
    lines = ab.summary({"design_oct@seed1": differ, "design_oct@seed29": same,
                        "reach_optimal@seed1": other})
    digest_lines = [line for line in lines if " digests: " in line]
    assert digest_lines == ["design_oct@seed1 digests: DIFFER base aa change aa bb",
                            "design_oct@seed29 digests: agree aa",
                            "reach_optimal@seed1 digests: DIFFER base aa change bb"]


def test_both_sides_run_from_sibling_directories(tmp_path, monkeypatch):
    # A small repository whose working tree edits a committed file, deletes
    # another and holds an untracked one: the base side is the commit, the
    # change side the tracked files as they stand, both under .bench_build/.
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("committed\n")
    (root / "gone.txt").write_text("committed\n")
    (root / "BENCHMARK.json").write_text((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    (root / "perfbench" / "run.py").write_text("edited\n")
    (root / "gone.txt").unlink()
    (root / "untracked.txt").write_text("untracked\n")
    monkeypatch.setattr(ab, "ROOT", root)
    monkeypatch.setattr(ab, "BUILD", root / ".bench_build")
    seen = {}

    def run_once(checkout, workload, seed, seconds):
        seen.setdefault(checkout, sorted(str(p.relative_to(checkout))
                                         for p in checkout.rglob("*") if p.is_file()))
        assert (checkout / "perfbench" / "run.py").read_text() == (
            "committed\n" if checkout.name == "base" else "edited\n")
        return {"correct": True, "attempted": 2, "failed": 0, "exit_code": 0, "digest": "d",
                "metrics": {name: {"value": 1.0} for name in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main(["--base", "HEAD", "--workloads", "sim_flip", "--seed", "1", "--pairs", "2",
                    "--seconds", "1", "--out", "ab.json"]) == 0
    build = root / ".bench_build"
    assert set(seen) == {build / "base", build / "change"}
    assert seen[build / "base"] == ["BENCHMARK.json", "gone.txt", "perfbench/run.py"]
    assert seen[build / "change"] == ["BENCHMARK.json", "perfbench/run.py"]
    assert not build.exists()
    assert json.loads((root / "ab.json").read_text())["runs"]["sim_flip@seed1"]["passes"] == {
        "base": [2, 2], "change": [2, 2]}
