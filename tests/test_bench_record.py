"""The benchmark recorder, tools/bench_record.py, on a checkout it cannot
name."""

import pathlib
import subprocess
import sys

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
