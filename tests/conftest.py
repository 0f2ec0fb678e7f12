"""pytest.ini puts src/ on sys.path; subprocesses started by the tests
(python -m intersective) get it through PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
