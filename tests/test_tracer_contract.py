"""The benchmark's tracer wraps functions of the program by name, in each
module once the program imports it. A rename or a removal in ``src/`` that
drops one of those names breaks every traced benchmark run; this check finds
it in about a second, by importing every hooked module under the hooks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The modules still pending after ``install_layers`` are the ones it hooks;
# importing each runs its hook, which looks up every name it wraps.
_SCRIPT = """
import importlib
import tracer
tracer.install_layers(tracer.Tracer())
hooked = sorted(tracer._after_import.pending)
for name in hooked:
    importlib.import_module(name)
assert hooked and not tracer._after_import.pending, tracer._after_import.pending
print(*hooked)
"""


def test_every_module_the_tracer_hooks_imports_under_its_hooks():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), str(ROOT / "src")))}
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr[-3000:]
    hooked = out.stdout.split()
    assert {"tunectl.metrics", "tunectl.cluster.sim", "tunectl.cluster.localproc"} <= set(hooked)
