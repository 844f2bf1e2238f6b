"""Set-up probe: import symlpp.cli in a fresh interpreter and parse model files.

Run as `python3 perfbench/setup_probe.py MODEL.json ...`; the caller times the
whole process, interpreter start included.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import symlpp.cli  # noqa: E402,F401
from symlpp.core import ModelSpec  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        ModelSpec.from_json_dict(json.load(fh))
