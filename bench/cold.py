"""Fresh-process probe used for the set-up and cold-op metrics.

    python3 cold.py SRC COMMAND CONFIG OUT

Imports freeboson from SRC, reads and decodes CONFIG and prints ``ready``;
then runs the op once through ``freeboson.cli.main`` between two
calibration units (see calibrate.py) and prints the op's seconds, its exit
code and the two calibration times.
"""
import json
import sys
import time

src, command, config_path, out_path = sys.argv[1:5]
sys.path.insert(0, src)

from freeboson import cli  # noqa: E402  (needs SRC on the path first)

with open(config_path, encoding="utf-8") as fh:
    json.load(fh)
print("ready", flush=True)

import calibrate  # noqa: E402  (imported after the set-up it must not inflate)

cal_ready = calibrate.unit_seconds()
started = time.perf_counter()
code = cli.main([command, "--config", config_path, "--out", out_path])
seconds = time.perf_counter() - started
cal_done = calibrate.unit_seconds()
print(f"{seconds!r} {code} {cal_ready!r} {cal_done!r}", flush=True)
