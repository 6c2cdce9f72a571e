"""Record the outputs each workload must reproduce, for a range of seeds.

    python3 perfbench/record_reference.py 0 63

For every workload and seed, runs one unit of work (one run, or one sweep
repetition) and writes its ``final_loss`` and ``sent_elements_per_round``
to ``reference.json`` next to this file, together with the Python and
NumPy versions they were recorded under.  The benchmark compares against
an entry only under the same versions.  Run it with the same environment
as ``run.py`` (``BENCH_ENV``); it re-executes itself to get it.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import OUT, ensure_bench_env  # noqa: E402


def main() -> None:
    from checks import REFERENCE_PATH, Tally, environment
    from workloads import WORKLOADS, make_unit

    first, last = int(sys.argv[1]), int(sys.argv[2])
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    recorded = {}
    try:
        for name, workload in WORKLOADS.items():
            recorded[name] = {}
            for seed in range(first, last + 1):
                tally = Tally()
                outputs = make_unit(workload, seed, scratch, tally, calibrate=False)().outputs
                if tally.failures:
                    raise SystemExit(f"{name} seed {seed}: {tally.failures}")
                recorded[name][str(seed)] = outputs
                print(name, seed, outputs, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    data = {"environment": environment(), "workloads": recorded}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    ensure_bench_env(__file__)
    main()
