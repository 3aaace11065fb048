"""The benchmark recorder, tools/bench_record.py: a checkout it cannot
name, and timed commands that fail."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "bench_record.py"


def test_root_outside_git_is_a_config_error(tmp_path):
    """Outside a git work tree there is no commit to record: exit 2 with a
    message naming --root before any workload runs, not a record that
    says "commit": "" and "dirty": false."""
    root = tmp_path.resolve()
    proc = subprocess.run([sys.executable, str(TOOL), "--label", "x",
                           "--root", str(root)], capture_output=True,
                          text=True, cwd=root, timeout=60)
    assert proc.returncode == 2
    assert "error: --root %s has no git commit to record: " % root \
        in proc.stderr
    assert "recording" not in proc.stderr and list(root.iterdir()) == []


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failing", [None, "jack-table", "weyl-scan",
                                     "test_03", "tier-1"])
def test_unexpected_exit_code_is_a_config_error(tmp_path, monkeypatch,
                                                capsys, failing):
    """Exit codes were stored and never compared, so a record could carry
    the times of commands that failed fast.  Every timed command must
    exit 0, the README's weyl-scan example 4; otherwise the recorder
    exits 2 naming the command and writes no file.  subprocess.run is
    stubbed: nothing is run."""
    tool = _recorder()
    root = tmp_path / "checkout"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"command": ["python3", "perfbench/run.py"], "run_seconds": 1,
         "workloads": [{"name": "w"}]}))
    last = {"metrics": {"wall_s": {"value": 0.1, "unit": "s"}},
            "attempted": 1, "failed": 0}

    def run(argv, **kwargs):
        text = " ".join(argv)
        code, stdout = 0, ""
        if argv[0] == "git":
            stdout = "0123abc\n" if "rev-parse" in argv else ""
        elif "perfbench/run.py" in argv:
            stdout = 'machine {"cpus": 1}\n' + json.dumps(last) + "\n"
        elif "--continue-on-collection-errors" in argv:
            code, stdout = (1 if failing == "tier-1" else 0), "1 passed\n"
        else:
            code = 4 if "weyl-scan" in text else 0
            if failing and failing in text:
                code = 1 if code == 0 else 0
        return subprocess.CompletedProcess(argv, code, stdout, "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    out = tmp_path / "BENCH_x.json"
    argv = ["--label", "x", "--root", str(root), "--output", str(out)]
    if failing is None:
        tool.main(argv)
        record = json.loads(out.read_text())
        assert record["cli"][tool.CLI[2]]["exit_codes"] == [4] * tool.RUNS
        return
    with pytest.raises(SystemExit) as info:
        tool.main(argv)
    assert info.value.code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "error: no file written: " in err
    named = [name for name in ["tier-1"] + tool.SLOW_TESTS + tool.CLI
             if repr(name) in err]
    assert len(named) == 1 and failing in named[0]
