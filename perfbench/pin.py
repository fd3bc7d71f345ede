"""Pin each workload x seed's event count and outcome digest.

    python3 perfbench/pin.py

For every workload and each seed in ``PIN_SEEDS`` this makes two
fresh-interpreter world runs: one with no probe installed and one with
the benchmark's probes.  It fails unless both fire the same number of
events (the probes must not change the simulation), then records
``events`` and ``digest`` in ``pins.json``, which ``run.py`` checks.
Re-pinning is a behaviour change of the simulator and needs a stated
reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import PINS, world_run
from workloads import WORKLOADS

PIN_SEEDS = range(30)


def main() -> int:
    pins: dict = {}
    for workload in WORKLOADS:
        for seed in PIN_SEEDS:
            plain = world_run(workload, seed, "--plain", timeout=300)
            probed = world_run(workload, seed, timeout=300)
            if plain["events"] != probed["events"]:
                print(f"{workload} seed {seed}: probes changed the event count "
                      f"({plain['events']} -> {probed['events']})", file=sys.stderr)
                return 1
            if probed["problems"]:
                print(f"{workload} seed {seed}: {probed['problems']}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = {
                "events": probed["events"], "digest": probed["digest"],
            }
            print(json.dumps({"workload": workload, "seed": seed,
                              "events": probed["events"], **probed["ops"]}))
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
