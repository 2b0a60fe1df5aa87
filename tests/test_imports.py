"""Importing the CLI pulls in the standard library and ``repro`` only.

Every module the CLI imports is paid for by every ``repro`` process
before it does any work, so a third-party import there (even an
optional one guarded by ``try``) shows up as start-up time and memory
on every run.  The check runs in a fresh interpreter so modules other
tests already imported cannot hide anything.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys
before = set(sys.modules)
import repro.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_only_stdlib_and_repro():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.cli" in added
    foreign = sorted(
        {
            name.split(".")[0]
            for name in added
            if name.split(".")[0] not in sys.stdlib_module_names
        }
        - {"repro"}
    )
    assert foreign == []
