"""One set-up of a workload, in a fresh interpreter: import the CLI, then
load and build every config the workload passes to it.

Usage: python3 setup_probe.py SRC_DIR CONFIG...
"""

import sys

sys.path.insert(0, sys.argv[1])

from virodyne import cli  # noqa: E402

for path in sys.argv[2:]:
    cfg = cli.load_config(path)
    if cfg.environment is not None:
        cfg.environment.build()
    if cfg.grid is not None:
        cfg.grid.axes()
        horizon = max(cfg.grid.times_s) + 1.0
        for src in cfg.sources:
            src.build(horizon)
