import csv
import dataclasses
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import pytest

from fixpair.cli import main
from fixpair.errors import FixpairError, StageError
from fixpair.pipeline import PipelineConfig, _Stages, run_pipeline

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
DATASET_FILES = ("file.csv", "class.csv", "method.csv", "method-p.csv")


def quiet_run(config, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_pipeline(config, **kwargs)


@pytest.fixture(scope="module")
def pipeline_out(fixture_repo, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipe"))
    config = PipelineConfig(
        out=out,
        repo=fixture_repo["repo"],
        issues=fixture_repo["issues"],
        repo_id="demo/fixture",
        eval_filters=("subtract",),
        levels=("method", "class", "file", "projected"),
        repeats=1,
        seed=7,
    )
    manifest = quiet_run(config)
    return {"out": out, "config": config, "manifest": manifest}


def test_manifest_lists_all_stages(pipeline_out):
    stages = pipeline_out["manifest"]["stages"]
    assert list(stages) == [
        "snapshot", "link", "analyze", "build", "filter", "evaluate", "stats",
    ]
    for name, info in stages.items():
        assert info["status"] == "fresh"
        for artifact in info["artifacts"]:
            assert os.path.exists(os.path.join(pipeline_out["out"], artifact)), (
                name, artifact,
            )


def test_expected_artifact_layout(pipeline_out):
    out = pipeline_out["out"]
    for sub in ("full", "removal", "subtract", "single", "gcf"):
        for name in DATASET_FILES:
            assert os.path.exists(os.path.join(out, "dataset", sub, name))
    assert os.path.exists(os.path.join(out, "plan.txt"))
    assert os.path.exists(os.path.join(out, "snapshot", "snapshot.json"))
    assert os.path.exists(os.path.join(out, "eval", "results.csv"))
    assert os.path.exists(os.path.join(out, "stats", "summary.txt"))


def test_golden_dataset_byte_identical(pipeline_out):
    for name in DATASET_FILES:
        got = Path(pipeline_out["out"], "dataset", "full", name).read_bytes()
        want = Path(GOLDEN_DIR, name).read_bytes()
        assert got == want, f"{name} diverges from the golden copy"


def test_golden_plan(pipeline_out):
    got = Path(pipeline_out["out"], "plan.txt").read_bytes()
    want = Path(GOLDEN_DIR, "plan.txt").read_bytes()
    assert got == want


def test_rerun_reports_all_cached(pipeline_out):
    manifest = quiet_run(pipeline_out["config"])
    assert all(
        info["status"] == "cached" for info in manifest["stages"].values()
    )


def test_method_p_has_parent_column(pipeline_out):
    path = os.path.join(pipeline_out["out"], "dataset", "full", "method-p.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["hash", "fqn", "parent_fqn"]
    assert all(r[2] for r in rows[1:])


def test_filtered_method_p_keeps_parents(pipeline_out):
    for strat in ("removal", "subtract", "single", "gcf"):
        path = os.path.join(pipeline_out["out"], "dataset", strat, "method-p.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["hash", "fqn", "parent_fqn"]
        assert all(r[2] for r in rows[1:]), strat


def test_eval_results_cover_requested_grid(pipeline_out):
    path = os.path.join(pipeline_out["out"], "eval", "results.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    levels = {r["level"] for r in rows}
    assert {"method", "class", "file", "projected"} <= levels
    algos = {r["algorithm"] for r in rows if r["algorithm"] != "-"}
    assert "random_forest" in algos and "one_r" in algos
    for r in rows:
        if r["algorithm"] == "-":
            continue
        f = float(r["f_measure"])
        assert 0.0 <= f <= 1.0


def test_stage_resume_after_artifact_removal(fixture_repo, tmp_path):
    out = str(tmp_path / "resume")
    config = PipelineConfig(
        out=out,
        repo=fixture_repo["repo"],
        issues=fixture_repo["issues"],
        eval_filters=("subtract",),
        levels=("method",),
        seed=7,
    )
    quiet_run(config, stop_after="build")
    # invalidate one later artifact; earlier stages stay cached
    os.remove(os.path.join(out, "dataset", "full", "method.csv"))
    manifest = quiet_run(config, stop_after="build")
    statuses = {k: v["status"] for k, v in manifest["stages"].items()}
    assert statuses["snapshot"] == "cached"
    assert statuses["link"] == "cached"
    assert statuses["analyze"] == "cached"
    assert statuses["build"] == "fresh"
    assert os.path.exists(os.path.join(out, "dataset", "full", "method.csv"))


# Every fingerprint of the fixture's `run --seed 7 --level method --level
# projected`.  A change to a stage's fingerprint parts or their order
# re-runs that stage, and every later one, in each existing --out; a
# change here must be meant (an ANALYZER_VERSION bump changes analyze on).
PINNED_KEYS = {
    "link": "fb8a41ce0ae4e814ed5ccdb5dc5907b428e1425944f5da6ea7b417801ca2f020",
    "analyze": "0cb2d348c9941972c183b7a9e70562fbe075ac8df2224b198759bec1943c3c11",
    "build": "2a4cdeceae533cd0453594e9775298fb7675530d4d98ccb4d9636b9e4a47abf0",
    "filter": "21d68ea794edc94007eca5ebfa9f092d61501e88e048db49b52f97d94b4d22f7",
    "evaluate": "e1f7ba0caac54ee3fd52287288e7ae316ab0dd18ea19f1be4732a66933450284",
    "stats": "798b6ae011c95d4f5762fb69f2d4735f7404959261baa23f4f64bc1d57f250ca",
}
PINNED_SNAPSHOT_KEYS = {
    "local": "8bf0f797ebe230c93631f1a71c7c738eacac73e207c26dcdf8e75dd25794e5df",
    "snapshot": "d8d19017b3f15bc0912f70571b9cef4cbc398cb5c83e5c89009172479025c23b",
}


@pytest.mark.parametrize("mode", ["local", "snapshot"])
def test_stage_fingerprints_are_pinned(fixture_repo, tmp_path, mode):
    snap = str(tmp_path / "snap.json")
    assert main(["fetch", "--from-local", fixture_repo["repo"],
                 "--issues", fixture_repo["issues"], "--out", snap]) == 0
    source = ["--issues", fixture_repo["issues"]] if mode == "local" else [
        "--snapshot", snap]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(["run", "--out", str(out), "--repo", fixture_repo["repo"],
                     *source, "--seed", "7", "--level", "method",
                     "--level", "projected"]) == 0
    keys = {
        state.stem: json.loads(state.read_text())["fingerprint"]
        for state in (out / ".stages").glob("*.json")
    }
    assert keys == {"snapshot": PINNED_SNAPSHOT_KEYS[mode], **PINNED_KEYS}


def test_failed_stage_is_not_cached_on_resume(tmp_path):
    stages = _Stages(str(tmp_path))
    artifact = tmp_path / "artifact.txt"

    def producer(text, fail=False):
        def produce():
            artifact.write_text(text)
            if fail:
                raise RuntimeError("killed after writing")
            return [str(artifact)]
        return produce

    assert not stages.run("s", "fp-A", producer("A"))
    with pytest.raises(StageError):
        stages.run("s", "fp-B", producer("B", fail=True))
    assert not stages.run("s", "fp-A", producer("A"))
    assert stages.manifest["s"]["status"] == "fresh"
    assert artifact.read_text() == "A"


def test_stage_records_what_it_wrote(tmp_path):
    stages = _Stages(str(tmp_path))

    def producer(*names, fail=False):
        def produce():
            for name in names:
                (tmp_path / name).write_text(name)
            if fail:
                raise RuntimeError("killed after writing")
            return [str(tmp_path / name) for name in names]
        return produce

    assert not stages.run("s", "fp-A", producer("b.txt", "a.txt"))
    assert stages.manifest["s"]["artifacts"] == ["a.txt", "b.txt"]
    assert stages.run("s", "fp-A", producer())
    assert stages.manifest["s"]["artifacts"] == ["a.txt", "b.txt"]
    # a failed run keeps the record, so the next fresh run still drops b.txt
    with pytest.raises(StageError):
        stages.run("s", "fp-B", producer("a.txt", fail=True))
    assert not stages.run("s", "fp-C", producer("a.txt"))
    assert sorted(os.listdir(tmp_path)) == [".stages", "a.txt"]
    assert stages.manifest["s"]["artifacts"] == ["a.txt"]
    os.remove(tmp_path / "a.txt")
    assert not stages.run("s", "fp-C", producer("a.txt"))


def test_fresh_stage_removes_temp_files_of_killed_writers(fixture_repo, tmp_path):
    config = PipelineConfig(out=str(tmp_path), repo=fixture_repo["repo"],
                            issues=fixture_repo["issues"], seed=7)
    quiet_run(config, stop_after="analyze")
    key = min(n for n in os.listdir(tmp_path / "analysis") if n != "index.json")
    planted = [tmp_path / ".plan.txt.1.0.tmp", tmp_path / "analysis" / f".{key}.1.0.tmp"]
    for path in planted:
        path.write_text("torn")
    changed = dataclasses.replace(
        config, keywords_only=True, test_globs=config.test_globs + ("**/None.java",)
    )
    stages = quiet_run(changed, stop_after="analyze")["stages"]
    assert stages["link"]["status"] == stages["analyze"]["status"] == "fresh"
    assert [path.exists() for path in planted] == [False, False]


def test_a_cached_rerun_removes_temp_files_of_killed_writers(fixture_repo, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(out=str(out), repo=fixture_repo["repo"],
                            issues=fixture_repo["issues"], seed=7)
    quiet_run(config, stop_after="filter")
    # a state file and the manifest are no stage's artifacts
    planted = [out / ".manifest.json.1.0.tmp", out / ".stages" / ".link.json.1.0.tmp"]
    kept = out / ".stages" / "notes.tmp"
    for path in [*planted, kept]:
        path.write_text("torn")
    stages = quiet_run(config, stop_after="filter")["stages"]
    assert {s["status"] for s in stages.values()} == {"cached"}
    assert [path.exists() for path in planted] == [False, False]
    assert kept.read_text() == "torn"


@pytest.mark.parametrize("state", [
    '{"fingerprint": ',
    "[1]",
    '{"fingerprint": "x", "artifacts": 5}',
    '{"fingerprint": "x", "artifacts": [1, null]}',
    '{"fingerprint": "x", "artifacts": ["../victim.txt"]}',
])
def test_a_damaged_stage_state_file_runs_its_stage_afresh(
    fixture_repo, tmp_path, capsys, state
):
    out = tmp_path / "out"
    args = ["filter", "--out", str(out), "--repo", fixture_repo["repo"],
            "--issues", fixture_repo["issues"]]
    victim = tmp_path / "victim.txt"
    victim.write_text("outside --out\n")

    def tree():
        return {
            os.path.relpath(path, out): path.read_bytes()
            for path in out.rglob("*") if path.is_file()
        }

    assert main(args) == 0
    first = tree()
    (out / ".stages" / "link.json").write_text(state)
    capsys.readouterr()
    assert main(args) == 0
    assert "link: fresh (2 artifacts)" in capsys.readouterr().out.splitlines()
    second = tree()
    # the manifest records this run's statuses: link fresh, the rest cached
    first.pop("manifest.json")
    second.pop("manifest.json")
    assert second == first
    assert victim.read_text() == "outside --out\n"


def test_artifacts_get_the_mode_of_a_plain_open(fixture_repo, tmp_path):
    out = tmp_path / "out"
    mask = os.umask(0o022)
    try:
        quiet_run(
            PipelineConfig(out=str(out), repo=fixture_repo["repo"],
                           issues=fixture_repo["issues"], seed=7),
            stop_after="link",
        )
    finally:
        os.umask(mask)
    modes = {
        os.path.relpath(os.path.join(root, name), out):
            os.stat(os.path.join(root, name)).st_mode & 0o777
        for root, _, names in os.walk(out)
        for name in names
    }
    assert os.path.join("snapshot", "snapshot.json") in modes
    assert modes == dict.fromkeys(modes, 0o644)


def test_missing_nemenyi_table_reruns_stats(pipeline_out, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    table = os.path.join(out, "stats", "nemenyi_subtract_class.txt")
    want = Path(table).read_bytes()
    os.remove(table)
    stages = quiet_run(dataclasses.replace(pipeline_out["config"], out=out))["stages"]
    assert stages["evaluate"]["status"] == "cached"
    assert stages["stats"]["status"] == "fresh"
    assert os.path.relpath(table, out) in stages["stats"]["artifacts"]
    assert Path(table).read_bytes() == want


def test_fewer_levels_leave_no_stale_nemenyi_table(pipeline_out, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    assert len(os.listdir(os.path.join(out, "stats"))) == 5
    config = dataclasses.replace(pipeline_out["config"], out=out, levels=("method",))
    stages = quiet_run(config)["stages"]
    assert stages["stats"]["status"] == "fresh"
    assert sorted(os.listdir(os.path.join(out, "stats"))) == [
        "nemenyi_subtract_method.txt", "summary.txt",
    ]
    assert stages["stats"]["artifacts"] == [
        os.path.join("stats", name)
        for name in ("nemenyi_subtract_method.txt", "summary.txt")
    ]


def test_parallel_analysis_matches_serial(fixture_repo, tmp_path):
    base = PipelineConfig(
        out=str(tmp_path / "serial"),
        repo=fixture_repo["repo"],
        issues=fixture_repo["issues"],
        seed=7,
    )
    quiet_run(base, stop_after="analyze")
    par = PipelineConfig(
        out=str(tmp_path / "par"),
        repo=fixture_repo["repo"],
        issues=fixture_repo["issues"],
        jobs=2,
        seed=7,
    )
    quiet_run(par, stop_after="analyze")
    serial_dir = os.path.join(str(tmp_path / "serial"), "analysis")
    par_dir = os.path.join(str(tmp_path / "par"), "analysis")
    assert sorted(os.listdir(serial_dir)) == sorted(os.listdir(par_dir))
    for name in os.listdir(serial_dir):
        a = Path(serial_dir, name).read_bytes()
        b = Path(par_dir, name).read_bytes()
        assert a == b, name


def test_each_file_version_analyzed_once(fixture_repo, tmp_path, monkeypatch):
    import hashlib
    import json

    from fixpair import pipeline
    from fixpair.gitio import GitRepo

    calls = []
    real = pipeline.analyze_source

    def counting(path, text):
        blob = f"blob {len(text.encode())}\0{text}".encode()  # git's blob sha
        calls.append((path, hashlib.sha1(blob).hexdigest()))
        return real(path, text)

    monkeypatch.setattr(pipeline, "analyze_source", counting)
    out = tmp_path / "out"
    config = PipelineConfig(
        out=str(out), repo=fixture_repo["repo"], issues=fixture_repo["issues"], seed=7
    )
    quiet_run(config, stop_after="analyze")
    assert len(calls) == len(set(calls))
    index = json.loads((out / "analysis" / "index.json").read_text())
    versions = set()
    with GitRepo(fixture_repo["repo"]) as repo:
        for commit, files in index.items():
            blobs = repo.tree_blobs(commit)
            assert "src/test/java/com/example/UtilTest.java" not in files
            for path, key in files.items():
                versions.add((path, blobs[path]))
                assert key == pipeline.analysis_key(path, blobs[path])
    assert set(calls) == versions
    keys = {key for files in index.values() for key in files.values()}
    assert sorted(os.listdir(out / "analysis")) == sorted(
        [f"{k}.json" for k in keys] + ["index.json"]
    )
    # a cached rerun analyzes nothing
    calls.clear()
    manifest = quiet_run(config, stop_after="analyze")
    assert manifest["stages"]["analyze"]["status"] == "cached" and not calls


def test_moved_class_goldens(moved_class_repo, tmp_path):
    out = str(tmp_path / "out")
    config = PipelineConfig(
        out=out, repo=moved_class_repo["repo"], issues=moved_class_repo["issues"],
        seed=7,
    )
    quiet_run(config, stop_after="build")
    golden = os.path.join(GOLDEN_DIR, "moved-class")
    for name in DATASET_FILES:
        got = Path(out, "dataset", "full", name).read_bytes()
        want = Path(golden, name).read_bytes()
        assert got == want, f"{name} diverges from the golden copy"
    got = Path(out, "plan.txt").read_bytes()
    assert got == Path(golden, "plan.txt").read_bytes()
    got = Path(out, "build", "drop_log.txt").read_bytes()
    assert got == Path(golden, "drop_log.txt").read_bytes()


def _count_snapshot_reads(monkeypatch):
    """Lists that record each ``load_snapshot`` path and each patch parsed."""
    from fixpair import ingest, pipeline

    loads, patches = [], []

    def counting(calls, real):
        def call(arg):
            calls.append(arg)
            return real(arg)
        return call

    monkeypatch.setattr(pipeline, "load_snapshot", counting(loads, pipeline.load_snapshot))
    monkeypatch.setattr(
        ingest, "parse_unified_diff", counting(patches, ingest.parse_unified_diff)
    )
    return loads, patches


def _tree(out):
    return {
        os.path.relpath(path, out): path.read_bytes()
        for path in Path(out).rglob("*") if path.is_file()
    }


def test_fresh_snapshot_run_parses_snapshot_once(fixture_repo, tmp_path, monkeypatch):
    snap_path = str(tmp_path / "snap.json")
    assert main([
        "fetch", "--from-local", fixture_repo["repo"],
        "--issues", fixture_repo["issues"], "--out", snap_path,
    ]) == 0
    loads, patches = _count_snapshot_reads(monkeypatch)
    config = PipelineConfig(
        out=str(tmp_path / "out"), snapshot=snap_path, repo=fixture_repo["repo"]
    )
    quiet_run(config, stop_after="link")
    assert loads == [snap_path]
    # a cached stage reads only what its fingerprint covers: no patch
    for stop_after in ("link", "filter"):
        quiet_run(config, stop_after=stop_after)  # runs what is not cached yet
        loads.clear()
        patches.clear()
        manifest = quiet_run(config, stop_after=stop_after)
        assert {s["status"] for s in manifest["stages"].values()} == {"cached"}
        assert (loads, patches) == ([], [])
    # a changed --snapshot input runs every stage from it afresh
    assert main([
        "fetch", "--from-local", fixture_repo["repo"], "--repo-id", "demo/other",
        "--issues", fixture_repo["issues"], "--out", snap_path,
    ]) == 0
    manifest = quiet_run(config, stop_after="filter")
    assert {s["status"] for s in manifest["stages"].values()} == {"fresh"}
    assert loads == [snap_path]


def test_a_fresh_build_after_a_cached_link_loads_the_snapshot_once(
    fixture_repo, tmp_path, monkeypatch
):
    config = PipelineConfig(out=str(tmp_path / "out"), repo=fixture_repo["repo"],
                            issues=fixture_repo["issues"], seed=7)
    quiet_run(config, stop_after="filter")
    changed = dataclasses.replace(config, ignore_comment_only=True)
    loads, _ = _count_snapshot_reads(monkeypatch)
    stages = quiet_run(changed, stop_after="filter")["stages"]
    assert [s["status"] for s in stages.values()] == [
        "cached", "cached", "cached", "fresh", "fresh"
    ]
    assert loads == [os.path.join(config.out, "snapshot", "snapshot.json")]
    fresh = dataclasses.replace(changed, out=str(tmp_path / "fresh"))
    quiet_run(fresh, stop_after="filter")
    mixed, clean = _tree(changed.out), _tree(fresh.out)
    assert mixed.pop("manifest.json") != clean.pop("manifest.json")  # statuses
    assert mixed == clean


def test_a_damaged_snapshot_copy_is_a_data_error(fixture_repo, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["filter", "--out", str(out), "--repo", fixture_repo["repo"],
            "--issues", fixture_repo["issues"]]
    assert main(args) == 0
    copy = out / "snapshot" / "snapshot.json"
    text = copy.read_text()
    at = text.index("@@ -")  # the first hunk header of the head commit
    copy.write_text(text[:at] + "@@ -x" + text[at + 4:])
    commit = json.loads(text)["commits"][0]["hash"]
    before = _tree(out)
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == (
        f"data error: {copy}: commit {commit[:12]}.file_diffs[0]: malformed hunk "
        f"header: '@@ -x6,7 +6,7 @@' (line 3, byte 80) (field: file_diffs)\n"
    )
    assert _tree(out) == before


def test_new_commit_invalidates_local_snapshot(fixture_repo, tmp_path):
    import json
    import subprocess
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import run_git

    clone = str(tmp_path / "clone")
    subprocess.run(
        ["git", "clone", "-q", fixture_repo["repo"], clone], check=True
    )
    config = PipelineConfig(
        out=str(tmp_path / "out"), repo=clone, issues=fixture_repo["issues"]
    )
    quiet_run(config, stop_after="link")
    assert quiet_run(config, stop_after="link")["stages"]["snapshot"]["status"] == (
        "cached"
    )
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME="x", GIT_AUTHOR_EMAIL="x@x", GIT_COMMITTER_NAME="x",
        GIT_COMMITTER_EMAIL="x@x",
        GIT_AUTHOR_DATE="2024-02-01T00:00:00 +0000",
        GIT_COMMITTER_DATE="2024-02-01T00:00:00 +0000",
    )
    run_git(clone, "commit", "-q", "--allow-empty", "-m", "fixes #1", env=env)
    manifest = quiet_run(config, stop_after="link")
    assert manifest["stages"]["snapshot"]["status"] == "fresh"
    snap = json.loads((tmp_path / "out" / "snapshot" / "snapshot.json").read_text())
    assert len(snap["commits"]) == 13


def test_pipeline_with_no_bug_issues(tmp_path):
    import json
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import RepoBuilder

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write("src/A.java", "class A { void m() { } }\n")
    b.commit("C1", "init")
    b.write("src/A.java", "class A { void m() { run(); } }\n")
    b.commit("C2", "work")
    issues = tmp_path / "issues.json"
    issues.write_text("[]")
    cfg = PipelineConfig(
        out=str(tmp_path / "out"), repo=b.path, issues=str(issues),
        levels=("method",),
    )
    manifest = quiet_run(cfg)
    assert all(i["status"] == "fresh" for i in manifest["stages"].values())
    method_csv = (tmp_path / "out" / "dataset" / "full" / "method.csv").read_text()
    assert method_csv.count("\n") == 1  # header only
    results = (tmp_path / "out" / "eval" / "results.csv").read_text()
    assert "skipped" in results


def test_degraded_timeline_excluded_from_dataset(tmp_path):
    import json
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import RepoBuilder

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write("src/A.java", "class A { int m() { return 1; } }\n")
    b.commit("C1", "init")
    b.write("src/A.java", "class A { int m() { return 0; } }\n")
    b.commit("C2", "Fix sign, closes #1")
    b.write("src/A.java", "class A { int m() { return 2; } }\n")
    b.commit("C3", "tail")
    issues = [
        {
            "id": 1, "state": "closed", "created_at": "2024-01-01T11:00:00Z",
            "closed_at": "2024-01-02T11:00:00Z", "labels": ["bug"],
            "fixing_commits": [b.hashes["C2"]],
        },
        {
            # fixing commit no longer exists in the repository
            "id": 2, "state": "closed", "created_at": "2024-01-01T11:00:00Z",
            "closed_at": "2024-01-03T11:00:00Z", "labels": ["bug"],
            "fixing_commits": ["f" * 40],
        },
    ]
    path = tmp_path / "issues.json"
    path.write_text(json.dumps(issues))
    cfg = PipelineConfig(
        out=str(tmp_path / "out"), repo=b.path, issues=str(path),
        levels=("method",),
    )
    quiet_run(cfg, stop_after="build")
    # the unresolvable issue is dropped at ingestion (no fixing commits left)
    snap = (tmp_path / "out" / "snapshot" / "snapshot.json").read_text()
    assert '"id": 2' not in snap
    method_csv = (tmp_path / "out" / "dataset" / "full" / "method.csv").read_text()
    rows = [r for r in method_csv.strip().split("\n")[1:]]
    assert len(rows) == 2  # one buggy + one fixed entry from issue 1 only


def test_signature_changing_fix_maps_both_fqns(tmp_path):
    import json
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import RepoBuilder
    from fixpair.dataset import load_entries_csv

    b = RepoBuilder(str(tmp_path / "repo"))
    b.write(
        "src/A.java",
        "class A {\n    int m(int a) {\n        return a;\n    }\n}\n",
    )
    b.commit("C1", "init")
    b.write(
        "src/A.java",
        "class A {\n    long m(long a) {\n        return a;\n    }\n}\n",
    )
    b.commit("C2", "Widen to long, fixes #1")
    issues = [
        {
            "id": 1, "state": "closed", "created_at": "2024-01-01T11:00:00Z",
            "closed_at": "2024-01-02T11:00:00Z", "labels": ["bug"],
            "fixing_commits": [b.hashes["C2"]],
        }
    ]
    path = tmp_path / "issues.json"
    path.write_text(json.dumps(issues))
    cfg = PipelineConfig(
        out=str(tmp_path / "out"), repo=b.path, issues=str(path),
        levels=("method",),
    )
    quiet_run(cfg, stop_after="build")
    entries = load_entries_csv(
        os.path.join(str(tmp_path / "out"), "dataset", "full", "method.csv"),
        "method",
    )
    by_key = {(e.commit_hash, e.fqn): e.bug_count for e in entries}
    # old signature exists only in the buggy state, new only in the fixed one
    assert by_key == {
        (b.hashes["C1"], "A.m(int)int"): 1,
        (b.hashes["C2"], "A.m(long)long"): 0,
    }


def test_analysis_cache_roundtrip():
    import json as _json

    from fixpair.analyzer import analyze_source
    from fixpair.pipeline import analysis_from_json, analysis_to_json

    src = (
        "package p;\n/** d */\npublic class A {\n"
        "    public int m(int a) {\n        if (a > 0) { return a; }\n"
        "        return 0;\n    }\n}\n"
    )
    fa = analyze_source("src/p/A.java", src)
    # must survive JSON text serialization
    doc = _json.loads(_json.dumps(analysis_to_json(fa)))
    back = analysis_from_json(doc)
    assert back.path == "src/p/A.java" and back.error is None
    assert back.code_lines == fa.code_lines
    stored = (
        "kind", "fqn", "path", "start_line", "end_line", "parent_fqn", "name",
        "modifiers", "param_types", "return_type", "degraded",
    )
    assert [[getattr(e, k) for k in stored] for e in back.elements] == [
        [getattr(e, k) for k in stored] for e in fa.elements
    ]
    assert {type(e.modifiers) for e in back.elements} == {tuple}
    assert {type(e.param_types) for e in back.elements} == {tuple}
    assert any(e.modifiers for e in back.elements)
    assert any(e.param_types for e in back.elements)
    for key, vec in fa.vectors.items():
        assert back.vectors[key].values == vec.values
        assert back.vectors[key].element.fqn == vec.element.fqn


def test_timelines_roundtrip(pipeline_out, fixture_snapshot):
    from fixpair.linker import BugFixTimeline, HistoryIndex, build_timeline
    from fixpair.pipeline import _TIMELINE_KEYS, _from_doc, _to_doc

    history = HistoryIndex(fixture_snapshot)
    built = [
        build_timeline(i, fixture_snapshot, history)
        for i in fixture_snapshot.issues
        if i.state == "closed" and i.fixing_commits
    ]
    with open(os.path.join(pipeline_out["out"], "link", "timelines.json")) as fh:
        docs = json.load(fh)["timelines"]
    assert [_from_doc(BugFixTimeline, d) for d in docs] == built
    odd = BugFixTimeline(
        issue_id=9, orange=None, green=("g",), degraded=True,
        missing=("m1", "m2"), notes=("no orange commit",),
    )
    for t in [*built, odd]:
        doc = json.loads(json.dumps(_to_doc(t, _TIMELINE_KEYS)))
        back = _from_doc(BugFixTimeline, doc)
        assert back == t  # a None orange included
        for f in dataclasses.fields(t):
            assert type(getattr(back, f.name)) is type(getattr(t, f.name))


def test_config_validation_errors(tmp_path):
    with pytest.raises(Exception):
        PipelineConfig(out=str(tmp_path / "x")).validate()
    with pytest.raises(Exception):
        PipelineConfig(
            out=str(tmp_path / "y"), snapshot="s.json", levels=("galaxy",)
        ).validate()
    assert PipelineConfig(out=str(tmp_path / "z"), seed=-3, jobs=2).seed == -3


@pytest.mark.parametrize("field, value, message", [
    ("levels", (), "at least one level"),
    ("levels", ("method", "galaxy"), "unknown levels: ['galaxy']"),
    ("algorithms", ("bogus",), "unknown algorithms: ['bogus']"),
    ("eval_filters", ("fancy",), "unknown filter strategies: ['fancy']"),
    ("repeats", 0, "repeats must be an integer >= 1, got 0"),
    ("repeats", 1.5, "repeats must be an integer >= 1, got 1.5"),
    ("folds", 1, "folds must be an integer >= 2, got 1"),
    ("folds", True, "folds must be an integer >= 2, got True"),
    ("out", 5, "out must be a string, got 5"),
    ("snapshot", 3, "snapshot must be a string, got 3"),
    ("repo", ["r"], "repo must be a string, got ['r']"),
    ("issues", {"a": 1}, "issues must be a string, got {'a': 1}"),
    ("repo_id", 7, "repo_id must be a string, got 7"),
    ("seed", "x", "seed must be an integer, got 'x'"),
    ("seed", 1.0, "seed must be an integer, got 1.0"),
    ("jobs", 0, "jobs must be an integer >= 1, got 0"),
    ("jobs", "2", "jobs must be an integer >= 1, got '2'"),
    ("keywords_only", "no", "keywords_only must be true or false, got 'no'"),
    ("ignore_comment_only", 1, "ignore_comment_only must be true or false, got 1"),
    ("bug_labels", [1], "bug_labels entries must be strings, got 1"),
    ("test_globs", ("a", 3), "test_globs entries must be strings, got 3"),
    ("levels", [["method"]], "levels entries must be strings, got ['method']"),
])
def test_config_rejects_illegal_values_when_made(tmp_path, field, value, message):
    from fixpair.errors import ConfigError

    with pytest.raises(ConfigError, match=r"\A" + re.escape(message)):
        PipelineConfig(**{"out": str(tmp_path), field: value})
    assert not os.listdir(tmp_path)  # nothing was checked on disk


# --- CLI ------------------------------------------------------------------------

def test_cli_fetch_from_local_and_run(fixture_repo, tmp_path, capsys):
    snap_path = str(tmp_path / "snap.json")
    rc = main(
        [
            "fetch",
            "--from-local", fixture_repo["repo"],
            "--issues", fixture_repo["issues"],
            "--out", snap_path,
            "--repo-id", "demo/fixture",
        ]
    )
    assert rc == 0
    assert os.path.exists(snap_path)
    out_dir = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main(
            [
                "run",
                "--out", out_dir,
                "--snapshot", snap_path,
                "--repo", fixture_repo["repo"],
                "--level", "method",
                "--filter", "subtract",
                "--seed", "7",
            ]
        )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "evaluate: fresh" in captured
    assert os.path.exists(os.path.join(out_dir, "dataset", "subtract", "method.csv"))


def test_cli_prints_each_level_warning_as_one_plain_line(fixture_repo, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    common = ["--out", out_dir, "--repo", fixture_repo["repo"],
              "--issues", fixture_repo["issues"], "--seed", "7",
              "--level", "method", "--level", "projected"]
    reduce_k = ("warning: filter subtract, level method: "
                "k=10 exceeds minority class size 2; reducing k")
    assert main(["run", *common]) == 0
    assert capsys.readouterr().err.splitlines() == [reduce_k]
    assert main(["evaluate", *common, "--algo", "one_r"]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [reduce_k]
    assert ".py:" not in err


def test_cli_run_subtract_has_no_skipped_cell(fixture_repo, tmp_path):
    out_dir = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main([
            "run", "--out", out_dir,
            "--repo", fixture_repo["repo"], "--issues", fixture_repo["issues"],
            "--filter", "subtract", "--seed", "7",
        ])
    assert rc == 0
    with open(os.path.join(out_dir, "eval", "results.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["level"] for r in rows} == {"file", "class", "method", "projected"}
    assert [r for r in rows if r["note"]] == []


def test_cli_program_error_in_evaluate_exits_4(fixture_repo, tmp_path, monkeypatch):
    from fixpair import pipeline

    def broken(*args, **kwargs):
        raise RuntimeError("a program error, not a data error")

    monkeypatch.setattr(pipeline, "evaluate_level", broken)
    rc = main([
        "run", "--out", str(tmp_path / "out"),
        "--repo", fixture_repo["repo"], "--issues", fixture_repo["issues"],
        "--level", "method", "--algo", "one_r",
    ])
    assert rc == 4


def _evaluate_copy(pipeline_out, tmp_path, **changes):
    """Evaluate a copy of the fixture run afresh with other settings (the
    stages before evaluate stay cached); returns its results.csv rows."""
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    config = dataclasses.replace(pipeline_out["config"], out=out, **changes)
    stages = quiet_run(config)["stages"]
    assert stages["filter"]["status"] == "cached"
    assert stages["evaluate"]["status"] == "fresh"
    with open(os.path.join(out, "eval", "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _no_parents(result):
    raise FixpairError("method lacks a parent class")


def test_evaluate_trains_each_method_model_once(pipeline_out, tmp_path, monkeypatch):
    from fixpair.learn import models

    calls = {}
    for algo in ("one_r", "decision_tree"):
        def counted(*args, _train=models.TRAINERS[algo], _algo=algo):
            calls[_algo] = calls.get(_algo, 0) + 1
            return _train(*args)

        monkeypatch.setitem(models.TRAINERS, algo, counted)
    rows = _evaluate_copy(
        pipeline_out, tmp_path, levels=("projected", "method"),
        algorithms=("one_r", "decision_tree"), folds=2, repeats=2,
    )
    assert [(r["level"], r["algorithm"], r["note"]) for r in rows] == [
        ("projected", "one_r", ""), ("projected", "decision_tree", ""),
        ("method", "one_r", ""), ("method", "decision_tree", ""),
    ]
    assert calls == {"one_r": 2 * 2, "decision_tree": 2 * 2}  # folds x repeats


def test_failed_projection_skips_only_projected(pipeline_out, tmp_path, monkeypatch):
    from fixpair import pipeline

    monkeypatch.setattr(pipeline, "project_folds", _no_parents)
    rows = _evaluate_copy(
        pipeline_out, tmp_path, levels=("method", "projected", "file"),
        algorithms=("one_r",),
    )
    assert [(r["level"], r["algorithm"], r["note"]) for r in rows] == [
        ("method", "one_r", ""),
        ("projected", "-", "skipped: method lacks a parent class"),
        ("file", "one_r", ""),
    ]


def test_failed_method_cv_skips_both_method_levels(pipeline_out, tmp_path, monkeypatch):
    from fixpair import pipeline

    evaluated, real = [], pipeline.evaluate_level

    def no_methods(dataset_dir, level, *args, **kwargs):
        evaluated.append(level)
        if level == "method":
            raise FixpairError("too few methods")
        return real(dataset_dir, level, *args, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_level", no_methods)
    rows = _evaluate_copy(
        pipeline_out, tmp_path, levels=("projected", "class", "method"),
        algorithms=("one_r",),
    )
    assert evaluated == ["method", "class"]
    assert [(r["level"], r["algorithm"], r["note"]) for r in rows] == [
        ("projected", "-", "skipped: too few methods"),
        ("class", "one_r", ""),
        ("method", "-", "skipped: too few methods"),
    ]


def test_cli_evaluate_fails_on_failed_projection(pipeline_out, monkeypatch, capsys):
    from fixpair import pipeline

    monkeypatch.setattr(pipeline, "project_folds", _no_parents)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main([
            "evaluate", "--out", pipeline_out["out"], "--filter", "subtract",
            "--level", "method", "--level", "projected", "--algo", "one_r",
        ])
    assert rc == 3
    captured = capsys.readouterr()
    assert "method    one_r" in captured.out
    assert "projected" not in captured.out
    assert "lacks a parent class" in captured.err


@pytest.mark.parametrize("damage", ["missing", "bad cell", "nan", "inf", "no bug_count"])
def test_cli_evaluate_on_a_damaged_dataset_is_a_data_error(
    pipeline_out, tmp_path, capsys, damage
):
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    path = os.path.join(out, "dataset", "gcf", "class.csv")
    if damage == "missing":
        os.remove(path)
        where = f"{path}: cannot read"
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if damage == "bad cell":
            rows[1][rows[0].index("LOC")] = "abc"
            where = f"{path}: line 2: could not convert string to float: 'abc'"
        elif damage in ("nan", "inf"):
            rows[1][rows[0].index("LOC")] = damage
            where = f"{path}: line 2: not a finite number: '{damage}'"
        else:
            rows = [row[:-1] for row in rows]  # bug_count is the last column
            where = f"{path}: line 2: no column 'bug_count'"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main(["evaluate", "--out", out, "--filter", "gcf", "--level", "class",
               "--algo", "one_r"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {where}")
    assert captured.out.count("\n") == 1  # the table header only


def test_a_damaged_dataset_fails_the_evaluate_stage(pipeline_out, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    path = os.path.join(out, "dataset", "subtract", "class.csv")
    with open(path, "a") as fh:
        fh.write("x,p.X,abc\n")
    config = dataclasses.replace(pipeline_out["config"], out=out, levels=("class",))
    with pytest.raises(StageError, match="stage 'evaluate' failed: .*class.csv"):
        quiet_run(config)


def test_cli_stats_on_a_malformed_folds_file_is_a_data_error(
    pipeline_out, tmp_path, capsys
):
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out["out"], out)
    folds = os.path.join(out, "eval", "folds.csv")
    with open(folds, newline="") as fh:
        rows = list(csv.reader(fh))
    for cell, problem in (
        ("abc", "could not convert string to float: 'abc'"),
        ("nan", "not a finite number: 'nan'"),
    ):
        rows[3][rows[0].index("f_measure")] = cell
        with open(folds, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert main(["stats", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"data error: {folds}: line 4: {problem}\n"
        assert captured.out == ""


def test_cli_evaluate_prints_table(pipeline_out, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main(
            [
                "evaluate",
                "--out", pipeline_out["out"],
                "--level", "method",
                "--algo", "one_r",
                "--filter", "subtract",
                "--seed", "7",
                "--repeats", "1",
            ]
        )
    assert rc == 0
    out = capsys.readouterr().out
    assert "one_r" in out and "method" in out


def test_cli_evaluate_every_filter(pipeline_out, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rc = main([
            "evaluate", "--out", pipeline_out["out"], "--filter", "subtract",
            "--filter", "gcf", "--level", "method", "--algo", "one_r",
        ])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split()[:3] for r in rows] == [
        ["subtract", "method", "one_r"], ["gcf", "method", "one_r"],
    ]
    assert all("method    one_r" in r for r in rows)


def _write_config(path, **settings):
    path.write_text(json.dumps(settings))
    return str(path)


def test_cli_evaluate_reads_the_config_file(pipeline_out, tmp_path, capsys):
    config = _write_config(
        tmp_path / "c.json", out=pipeline_out["out"], algorithms=["one_r"],
        eval_filters=["subtract"],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(["evaluate", "--config", config]) == 0
        # no --level and no config levels: the method level only
        assert [r.split()[:3] for r in capsys.readouterr().out.splitlines()[1:]] == [
            ["subtract", "method", "one_r"],
        ]
        config = _write_config(
            tmp_path / "c.json", out=pipeline_out["out"], algorithms=["one_r"],
            levels=["file", "class"],
        )
        assert main(["evaluate", "--config", config, "--filter", "gcf"]) == 0
    assert [r.split()[:3] for r in capsys.readouterr().out.splitlines()[1:]] == [
        ["gcf", "file", "one_r"], ["gcf", "class", "one_r"],
    ]


def test_cli_settings_from_a_config_file_hit_the_cache(fixture_repo, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main([
        "link", "--out", out, "--repo", fixture_repo["repo"],
        "--issues", fixture_repo["issues"], "--repo-id", "demo/fixture",
        "--bug-label", "bug", "--bug-label", "defect",
    ]) == 0
    assert "snapshot: fresh" in capsys.readouterr().out
    config = _write_config(
        tmp_path / "c.json", out=out, repo=fixture_repo["repo"],
        issues=fixture_repo["issues"], repo_id="demo/fixture",
        bug_labels=["bug", "defect"],
    )
    assert main(["link", "--config", config]) == 0
    captured = capsys.readouterr().out
    assert "snapshot: cached" in captured and "link: cached" in captured


def test_cli_evaluate_rejects_zero_repeats(pipeline_out, capsys):
    rc = main([
        "evaluate", "--out", pipeline_out["out"], "--algo", "one_r", "--repeats", "0",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: repeats must be an integer >= 1")
    assert captured.out == ""  # rejected before the table header


@pytest.mark.parametrize("form", ["flag", "config file"])
@pytest.mark.parametrize("command", ["evaluate", "run"])
@pytest.mark.parametrize("setting, value, message", [
    ("repeats", 0, "repeats must be an integer >= 1, got 0"),
    ("folds", 1, "folds must be an integer >= 2, got 1"),
    ("jobs", 0, "jobs must be an integer >= 1, got 0"),
    ("seed", "x", "seed must be an integer, got 'x'"),
    ("repo_id", ["demo"], "repo_id must be a string, got ['demo']"),
    ("keywords_only", "no", "keywords_only must be true or false, got 'no'"),
    ("bug_labels", [1], "bug_labels entries must be strings, got 1"),
    ("test_globs", [3], "test_globs entries must be strings, got 3"),
    ("levels", [[1]], "levels entries must be strings, got [1]"),
    # a broken config file (None: no file at all); its path leads the message
    ("config", None, "cannot read: No such file or directory"),
    ("config", b"{bad", "Expecting property name enclosed in double quotes"),
    ("config", b"\xff\xfe{}", "not UTF-8 (byte 0)"),
    ("config", b'["out"]', "a config file must hold a JSON object"),
    ("config", b"3", "a config file must hold a JSON object"),
], ids=["repeats", "folds", "jobs", "seed", "repo_id", "keywords_only", "bug_labels",
        "test_globs", "levels", "no config file",
        "config not JSON", "config not UTF-8", "config a list", "config a number"])
def test_cli_illegal_repeats_or_folds_is_a_config_error(
    pipeline_out, fixture_repo, tmp_path, capsys, form, command, setting, value,
    message,
):
    # run gets a valid repository, so only the setting can stop it
    out = pipeline_out["out"] if command == "evaluate" else str(tmp_path / "o")
    settings = {"out": out, "algorithms": ["one_r"]}
    if command == "run":
        settings.update(repo=fixture_repo["repo"], issues=fixture_repo["issues"])
    config = tmp_path / "c.json"
    if form == "flag":
        argv = [command, "--algo", "one_r", "--out", out]
        if command == "run":
            argv += ["--repo", settings["repo"], "--issues", settings["issues"]]
        settings = {}
    else:
        argv = [command]
    if setting == "config":  # read even where flags give every setting
        if value is not None:
            config.write_bytes(value)
        argv += ["--config", str(config)]
        message = f"{config}: {message}"
    elif form == "flag" and isinstance(value, int):
        argv += [f"--{setting}", str(value)]
    else:  # a value no flag can carry comes from the file beside the flags
        argv += ["--config", _write_config(config, **settings, **{setting: value})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}")
    assert captured.out == ""
    if command == "run":
        assert not os.path.exists(out)


def test_cli_config_sequence_must_be_a_list(tmp_path, capsys):
    config = _write_config(tmp_path / "c.json", out=str(tmp_path), levels="method")
    assert main(["link", "--config", config]) == 2
    assert "levels must be a list" in capsys.readouterr().err


def test_cli_evaluate_rejects_an_unknown_algorithm(pipeline_out, capsys):
    assert main(["evaluate", "--out", pipeline_out["out"], "--algo", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: unknown algorithms: ['bogus']")
    assert "one_r" in captured.err  # the legal values are listed
    assert captured.out == ""


def test_cli_config_file_with_an_unknown_algorithm(pipeline_out, tmp_path, capsys):
    config = _write_config(
        tmp_path / "c.json", out=pipeline_out["out"], algorithms=["bogus"]
    )
    for command in ("evaluate", "run"):
        assert main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown algorithms: ['bogus']")


@pytest.mark.parametrize("command", ["evaluate", "run", "link"])
@pytest.mark.parametrize("flags, message", [
    (["--level", "galaxy"], "unknown levels: ['galaxy']"),
    (["--filter", "fancy"], "unknown filter strategies: ['fancy']"),
])
def test_cli_unknown_level_or_filter_is_a_config_error(
    tmp_path, capsys, command, flags, message
):
    # the config check rejects them, not argparse (which would raise SystemExit)
    assert main([command, "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("issues, where", [
    ([{"id": 1}], "missing key in issues[0] (field: state)"),
    ({"id": 1}, "issues file must hold a list of issues"),
    (
        [{"id": 1, "state": "open", "created_at": "2024-01-01T00:00:00Z",
          "labels": "bug"}],
        "issues[0].labels has type str (field: labels)",
    ),
    (
        [{"id": 1, "state": "closed", "created_at": "2024-01-01T00:00:00Z",
          "closed_at": "2024-01-02T00:00:00Z", "fixing_commits": "abc"}],
        "issues[0].fixing_commits has type str (field: fixing_commits)",
    ),
    # the file's bytes as they are (None: no file)
    (None, "cannot read: No such file or directory"),
    (b"{bad", "Expecting property name enclosed in double quotes"),
    (b"\xff\xfe[]", "not UTF-8 (byte 0)"),
])
def test_cli_fetch_rejects_a_malformed_issues_file(
    fixture_repo, tmp_path, capsys, issues, where
):
    path = tmp_path / "issues.json"
    if isinstance(issues, bytes):
        path.write_bytes(issues)
    elif issues is not None:
        path.write_text(json.dumps(issues))
    snap = tmp_path / "snap.json"
    rc = main(["fetch", "--from-local", fixture_repo["repo"], "--issues", str(path),
               "--out", str(snap)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and where in err
    assert "Traceback" not in err
    assert not snap.exists()


def test_cli_evaluate_external_predictions(tmp_path, capsys):
    path = tmp_path / "preds.csv"
    path.write_text(
        "fqn,parent_fqn,predicted,actual\nC.a(),C,buggy,buggy\nC.b(),C,clean,buggy\n"
    )
    rc = main(["evaluate", "--external-predictions", str(path)])
    assert rc == 0
    assert "precision=" in capsys.readouterr().out


@pytest.mark.parametrize("text, where, field", [
    ("parent_fqn,predicted,actual\nC,buggy,buggy\n", "header", "fqn"),
    ("fqn,parent_fqn,actual\nC.a(),C,buggy\n", "header", "predicted"),
    ("fqn,parent_fqn,predicted\nC.a(),C,buggy\n", "header", "actual"),
    ("", "header", "fqn"),
    ("fqn,parent_fqn,predicted,actual\nC.a(),C,buggy,clean\nC.b(),C,Buggy,clean\n",
     "line 3", "predicted"),
    ("fqn,parent_fqn,predicted,actual\nC.a(),C,clean,1\n", "line 2", "actual"),
    ("fqn,parent_fqn,predicted,actual\nC.a(),C,maybe,buggy\n", "line 2", "predicted"),
    ("fqn,parent_fqn,predicted,actual\nC.a(),C\n", "line 2", "predicted"),
    # the file's bytes as they are (None: no file); no field is at fault
    (None, "cannot read: No such file or directory", None),
    (b"fqn,parent_fqn,predicted,actual\n\xff,C,buggy,buggy\n", "not UTF-8 (byte 32)",
     None),
    # a field over the csv module's size limit
    pytest.param(
        "fqn,parent_fqn,predicted,actual\nC.a(),C," + "b" * 140_000 + ",buggy\n",
        "field larger than field limit", None, id="field over the size limit",
    ),
])
def test_cli_evaluate_rejects_malformed_external_predictions(
    tmp_path, capsys, text, where, field
):
    path = tmp_path / "preds.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    rc = main(["evaluate", "--external-predictions", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ")
    assert where in err and (field is None or f"(field: {field})" in err)


def test_cli_stats_matrix(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(
        "row,a,b,c\nr1,0.5,0.6,0.7\nr2,0.4,0.65,0.71\nr3,0.45,0.6,0.72\n"
        "r4,0.5,0.62,0.69\nr5,0.48,0.61,0.7\n"
    )
    rc = main(["stats", "--matrix", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "friedman" in out and "q_crit" in out


@pytest.mark.parametrize("text, where", [
    ("", "row 1"),
    ("row\nr1\nr2\n", "row 1"),
    ("row,a,b\nr1,0.5,0.6\nr2,0.4,high\n", "row 3: could not convert string to float: 'high'"),
    ("r1,0.5,0.6\nr2,,0.7\n", "row 2: could not convert string to float: ''"),
    ("row,a,b\nr1,0.5,0.6\n", "at least 2 rows"),
    ("r,a,b\n1,nan,0.6\n2,0.3,0.2\n", "row 2: not a finite number: 'nan'"),
    ("r,a,b\n1,0.5,0.6\n2,0.3,-inf\n", "row 3: not a finite number: '-inf'"),
    ("r1,0.5,0.6\nr2,Infinity,0.7\n", "row 2: not a finite number: 'Infinity'"),
    # the file's bytes as they are (None: no file)
    (None, "cannot read: No such file or directory"),
    (b"\xff\xfe", "not UTF-8 (byte 0)"),
    # a field over the csv module's size limit
    pytest.param(
        "row,a,b\nr1," + "5" * 140_000 + ",0.6\n", "field larger than field limit",
        id="field over the size limit",
    ),
])
def test_cli_stats_rejects_a_malformed_matrix(tmp_path, capsys, text, where):
    path = tmp_path / "m.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main(["stats", "--matrix", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and where in err


@pytest.mark.parametrize("source, alpha, message", [
    ("--matrix", "1.5", "--alpha must be in (0, 1), got 1.5"),
    ("--matrix", "0", "--alpha must be in (0, 1), got 0.0"),
    ("--matrix", "1", "--alpha must be in (0, 1), got 1.0"),
    ("--matrix", "-0.1", "--alpha must be in (0, 1), got -0.1"),
    ("--matrix", "nan", "--alpha must be in (0, 1), got nan"),
    ("--out", "0.1", "--alpha applies to --matrix"),
])
def test_cli_stats_rejects_alpha_it_cannot_use(tmp_path, capsys, source, alpha, message):
    path = tmp_path / "m.csv"
    path.write_text("row,a,b\nr1,0.5,0.6\nr2,0.4,0.65\nr3,0.45,0.6\n")
    target = path if source == "--matrix" else tmp_path
    assert main(["stats", source, str(target), "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err


@pytest.mark.parametrize("out", ["existing", "missing"])
def test_cli_stats_rejects_both_sources(tmp_path, capsys, out):
    path = tmp_path / "m.csv"
    path.write_text("row,a,b\nr1,0.5,0.6\nr2,0.4,0.65\nr3,0.45,0.6\n")
    target = tmp_path if out == "existing" else tmp_path / "no" / "dir"
    assert main(["stats", "--matrix", str(path), "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --matrix and --out exclude each other\n"


def test_cli_stats_alpha_sets_the_matrix_critical_value(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("row,a,b\nr1,0.5,0.6\nr2,0.4,0.65\nr3,0.45,0.6\n")
    assert main(["stats", "--matrix", str(path)]) == 0
    default = capsys.readouterr().out
    assert main(["stats", "--matrix", str(path), "--alpha", "0.05"]) == 0
    assert capsys.readouterr().out == default
    assert main(["stats", "--matrix", str(path), "--alpha", "0.1"]) == 0
    assert capsys.readouterr().out != default


def test_cli_exit_codes(tmp_path, capsys):
    # config error: no out
    assert main(["link"]) == 2
    # stage failure: snapshot file missing
    rc = main(
        [
            "link",
            "--out", str(tmp_path / "o"),
            "--snapshot", str(tmp_path / "missing.json"),
        ]
    )
    assert rc == 4
    # stage failure too, not a traceback: the snapshot path is a directory
    assert main(["link", "--out", str(tmp_path / "o"), "--snapshot", str(tmp_path)]) == 4
    # data error: stats without eval output
    rc = main(["stats", "--out", str(tmp_path / "empty")])
    assert rc == 3


def test_successive_cli_calls_share_no_parsed_state(tmp_path, monkeypatch):
    # the parser is built once; what one call appends must not reach the next
    seen = []

    def record(config, stop_after=None):
        seen.append((config.levels, config.eval_filters, config.algorithms))
        return {"stages": {}}

    monkeypatch.setattr("fixpair.pipeline.run_pipeline", record)
    out = str(tmp_path)
    assert main(["run", "--out", out, "--level", "class", "--filter", "gcf",
                 "--algo", "one_r"]) == 0
    assert main(["run", "--out", out]) == 0
    assert main(["run", "--out", out, "--level", "file"]) == 0
    default = PipelineConfig(out=out)
    assert seen == [
        (("class",), ("gcf",), ("one_r",)),
        (default.levels, default.eval_filters, default.algorithms),
        (("file",), default.eval_filters, default.algorithms),
    ]
