"""Set-up probe: a fresh interpreter imports ``repro.cli``, builds one
workload's task, then takes host-speed ticks (see ``hostspeed.py``), and
prints both times and the ticks as one JSON line.

    PYTHONPATH=src python3 perfbench/probe.py <workload> <seed>
"""

import importlib
import json
import sys
import time

#: Ticks taken after the timed steps: ~10 ms of the host's speed.
PROBE_TICKS = 20


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    importlib.import_module("repro.cli")
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS, build_task

    start = time.perf_counter()
    build_task(WORKLOADS[name], seed)
    task_build_s = time.perf_counter() - start

    from hostspeed import tick

    tick()  # the first call pays one-off costs
    ticks = [tick() for _ in range(PROBE_TICKS)]
    print(json.dumps({"import_s": import_s, "task_build_s": task_build_s, "ticks": ticks}))


if __name__ == "__main__":
    main()
