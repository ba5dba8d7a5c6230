"""The benchmark's tracer wraps fixpair's public calls by name, so renaming
one of them breaks ``perfbench/run.py --trace 1``; this catches it here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_instruments_the_source():
    # in a child process: instrument() patches fixpair and subprocess for good
    probe = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import tracer\n"
        "tracer.instrument(tracer.Tracer())\n"
        "from fixpair import analyzer, diffs, ingest, linker, pipeline, stats\n"
        "from fixpair.java import tokenizer\n"
        "from fixpair.learn import kernels\n"
        "for f in (kernels.best_split, ingest.snapshot_from_local_repo,\n"
        "          pipeline.snapshot_from_local_repo, linker.build_timeline,\n"
        "          pipeline.build_timeline, linker.HistoryIndex.__init__,\n"
        "          tokenizer.tokenize, analyzer.tokenize, stats.studentized_range_isf,\n"
        "          stats.nemenyi, diffs.parse_unified_diff, pipeline.run_pipeline,\n"
        "          pipeline._Stages.run, pipeline.evaluate_level,\n"
        "          pipeline.analysis_to_json, pipeline.analysis_from_json):\n"
        "    print(f.__wrapped__.__module__, f.__wrapped__.__qualname__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe,
         os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        "fixpair.learn.kernels best_split",
        "fixpair.ingest snapshot_from_local_repo",
        "fixpair.ingest snapshot_from_local_repo",
        "fixpair.linker build_timeline",
        "fixpair.linker build_timeline",
        "fixpair.linker HistoryIndex.__init__",
        "fixpair.java.tokenizer tokenize",
        "fixpair.java.tokenizer tokenize",
        "fixpair.stats studentized_range_isf",
        "fixpair.stats nemenyi",
        "fixpair.diffs parse_unified_diff",
        "fixpair.pipeline run_pipeline",
        "fixpair.pipeline _Stages.run",
        "fixpair.pipeline evaluate_level",
        "fixpair.pipeline analysis_to_json",
        "fixpair.pipeline analysis_from_json",
    ]
