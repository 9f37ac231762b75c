import os
import subprocess
import sys
import types
from pathlib import Path

import apwalks


def test_cli_import_leaves_signal_and_traceback_unloaded():
    # fork imports signal only to kill a failed child and prints a child's
    # traceback through sys.excepthook; neither may load at import time.
    script = "import sys, apwalks.cli; print(sorted({'signal', 'traceback'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(apwalks.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_all_lists_exactly_the_reexported_names():
    assert all(hasattr(apwalks, name) for name in apwalks.__all__)
    reexported = {name for name, value in vars(apwalks).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(apwalks.__all__) == sorted(reexported)
