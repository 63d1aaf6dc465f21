"""The four demos run as scripts, each printing the same bytes every time."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symprep

SRC = Path(symprep.__file__).resolve().parent.parent
DEMOS = SRC.parent / "demos"

# sha256 of each demo's stdout; a change to what a demo prints updates its
# digest here and says so in CHANGES.md
_DIGESTS = {
    "01_symplectic_embedding.py": "ad9137fa1eb25d20fd556ff161c6b7a9738bbd26d1b6386bd4e6d39bc6512d60",
    "02_overlap_dimensions.py": "e50553e5bb15b902abc7d20f6ddf7ffd1fca276615f1ec081bd6d1c5a3cbceca",
    "03_loewy_depth.py": "e0055416b8d81e986e421091b6b721992955e903f632ad06bb3b5a6b440d4836",
    "04_verification_harness.py": "29269a6843b8380c9ed627449643ba021088ff99c2206aaa3af32ae9a8efe0b2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(_DIGESTS)


@pytest.mark.parametrize("demo", sorted(_DIGESTS))
def test_demo_output_is_pinned(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=SRC.parent,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == _DIGESTS[demo]
