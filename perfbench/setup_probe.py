"""Print dworklab's set-up time in this fresh interpreter, in seconds.

Usage: python3 -I setup_probe.py SRC_DIR '[[p, N, m], ...]'

Set-up is importing `dworklab.cli`, building its argument parser and
running `ctx_new` for each listed context.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json  # noqa: E402

from dworklab import cli  # noqa: E402
from dworklab.padic import ctx_new  # noqa: E402

cli.build_parser()
for p, N, m in json.loads(sys.argv[2]):
    ctx_new(p, N, m)
print(repr(time.perf_counter() - t0))
