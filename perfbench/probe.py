"""Set-up probe: a fresh interpreter that builds one workload's inputs.

    python3 perfbench/probe.py WORKLOAD INPUTS.json

Prints ``ready`` once the package is imported and the inputs are parsed
and closed into groups; ``run.py`` times this from process start.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

with open(sys.argv[2]) as fh:
    workloads.WORKLOADS[sys.argv[1]](json.load(fh))
print("ready", flush=True)
