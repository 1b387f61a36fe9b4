"""The benchmark tracer still finds every name it wraps.

``perfbench/tracer.py`` looks functions up by module attribute when it is
installed (``contexts.proj_leq``, ``quantum.eigensystem`` ...), so a rename
or a dropped import under ``src/`` makes ``--trace 1`` fail with
``AttributeError``.  Installing patches the modules, hence the subprocess.
"""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
