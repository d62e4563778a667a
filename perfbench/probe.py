"""Set-up probe: import ``supmin.cli`` from a source tree and load one config.

Usage: python3 probe.py SRC_DIR CONFIG.  Prints one JSON line with the import
and config-load times and the path the module was imported from.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import supmin.cli  # noqa: E402

t1 = time.perf_counter()
supmin.cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "module": supmin.cli.__file__}),
      flush=True)
