"""The README's Quick start block runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import curvecone

ROOT = Path(__file__).resolve().parent.parent


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_it_claims():
    block = _quick_start()
    # The comments on print lines that name a value, in order.
    claims = re.findall(r"^print\(.*\)\s+# (.+)$", block, re.M)
    assert claims[:2] == ["{0: 2, 1: 2}", "3.0"]
    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[:2] == claims[:2]
