"""Each demo script runs to its end as ``python demos/NAME.py`` from the
repository root and prints its narrative, and so does the README's library
quick start, so an example that imports a removed name, passes a removed
setting or uses a name it never defines fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_the_demo_runs_and_prints(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_the_readme_quick_start_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "TransportEstimate(" in capsys.readouterr().out
