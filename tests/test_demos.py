"""Tooling gate: every demo script, and the README's library tour, runs to
completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("adaptive_learners.py", []),
    ("limit_vectors.py", []),
    ("reproduce_experiments.py", ["2000"]),
], ids=["adaptive_learners", "limit_vectors", "reproduce_experiments"])
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    """The first Python block under "Library tour" in README.md runs as
    written, so the imports it documents exist."""
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})  # noqa: S102
