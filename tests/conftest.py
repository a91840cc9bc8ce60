"""Run the suite from a checkout without installing the package.

pyproject's ``pythonpath`` puts ``src`` on this process's import path;
the CLI entry-point test starts a child interpreter, which needs it on
``PYTHONPATH`` as well.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
