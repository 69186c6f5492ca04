"""The demos' standard output, pinned byte for byte, so that a refactor
that changes what a demo prints fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, digest",
    [
        ("01_exact_spaces.py",
         "9e3d305f7fc2f42b01119b724d7e169af26992aa95779d02d94a330eec41b53a"),
        ("02_model_graph.py",
         "46a17cc7e16db55de3c83f2fdf653f1203375238aac09651f634f1894ccc3264"),
        ("03_boundary_and_shift.py",
         "bb69d6c74b98979a18d466c72a8d6af38594e1cad777605090f1215258811987"),
        ("04_groupoid_principality.py",
         "d03761a87b49009925036e562d0966382ec1549496ffd68038d764e3d139c459"),
        ("05_ktheory.py",
         "6d8d137595932fc58ccc6d26d5425ef763e02f01e65dd75d8bc48ca163c7ee34"),
    ],
)
def test_demo_output_pinned(demo, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=ROOT, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest
