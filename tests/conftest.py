"""The suite's child processes (`python -m entropyne.cli ...`) import the
package from the source tree, as the suite itself does through pytest's
`pythonpath` setting, so a bare `python -m pytest` needs no PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
