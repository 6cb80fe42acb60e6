"""The benchmark worker binds drgq names at import, and its tracer looks up
more when it installs; a renamed or deleted name would fail every benchmark
operation, so import it and install the tracer here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                                   os.path.join(ROOT, "benchmarks")]))


def test_worker_imports():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "benchmarks", "worker.py"), "--probe"],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_worker_installs_and_restores_tracer():
    script = ("import worker\n"
              "patches = worker.Patches()\n"
              "worker.install_tracer(patches, worker.Tracer())\n"
              "assert patches.undo\n"
              "patches.restore()\n"
              "assert not patches.undo\n")
    proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
