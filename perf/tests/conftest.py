"""``perf`` is a directory of scripts, not a package: put it on the path.

``src`` goes on the path too: a traced round switches the program's own
``repro.obs`` session on.
"""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(PERF_DIR), "src"), PERF_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
