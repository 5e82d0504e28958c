"""The CLI's import stays light: ``sitetransport.heterogeneity`` imports
``brentq`` inside the function that uses it, and nothing imports
``scipy.stats``. On a 2-vCPU box with Python 3.11 and scipy 1.17, importing
``scipy.optimize`` after the CLI takes about 0.1 s and ``scipy.stats`` a
further 0.4 s, and every start of the command would pay them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_importing_the_cli_loads_neither_scipy_optimize_nor_scipy_stats():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import json, sys, sitetransport.cli; print(json.dumps([m for m in sys.modules if m.startswith('scipy.')]))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[1] for name in json.loads(proc.stdout)}
    assert not loaded & {"optimize", "stats"}, sorted(loaded)
