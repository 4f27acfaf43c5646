"""The benchmark's tracer runs against the library as it is.

bench/tracing.py wraps library names in place: CyclotomicNumber.reduced and
its _reduced attribute, the scalar arithmetic methods, SeifertFamily.assemble,
_inertia_at and load, LaurentMatrix.evaluate, HermitianMatrix, _level and
_inertia, the fixture leaves and the splice combinators.  It looks every one
of them up before the request runs, so a renamed or removed name fails any
traced request; `verify hirzebruch` is a short one that also takes a Seifert
family through assemble and _inertia, and the splice of two fixtures calls
the combinator and leaf wrappers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify_hirzebruch(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans), "r0",
         "verify", "hirzebruch"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS hirzebruch")
    doc = json.loads(spans.read_text())
    assert doc["request"] == "r0"
    assert "verify.hirzebruch" in doc["names"]


def test_traced_splice_of_fixtures(tmp_path):
    # runs the splice combinator and fixture leaf wrappers, not only installs them
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    expr = '{"splice": [{"fixture": "torus-2-4"}, [2], {"fixture": "cable-4-2"}, [1, 1]]}'
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans), "r1",
         "eval", expr, "--at", "1/8,1/8,1/8"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"
    names = json.loads(spans.read_text())["names"]
    assert "splice.combinator" in names
    assert "fixtures.leaf" in names
