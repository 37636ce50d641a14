"""Time hfkit's set-up for one workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SRC_DIR

Measures importing hfkit plus the workload's set-up calls while the speed
sampler runs, and prints the raw and the scaled time as one JSON line.
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import SpeedSampler  # noqa: E402


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    wl = importlib.import_module(workload)
    sys.path.insert(0, src)
    with SpeedSampler() as sampler:
        t0 = perf_counter()
        import hfkit

        wl.setup(hfkit)
        t1 = perf_counter()
        stolen = sampler.stolen
    raw = t1 - t0 - stolen
    print(json.dumps({"raw_s": raw, "scaled_s": raw * sampler.factor(t0, t1)}))


if __name__ == "__main__":
    main()
