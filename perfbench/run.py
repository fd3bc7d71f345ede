"""The repository benchmark: INDISS discovery worlds, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/repro``).  Each
world run happens in a fresh interpreter (``world_run.py``), because
``ru_maxrss`` is per process and process-global state must not carry
from one run into the next.  The run repeats the workload with the same
seed until ``S`` seconds have passed (at least three times) and reports
medians of the host-time figures; each repeat's figures go to stderr.
The host-time figures are scaled to a reference machine speed: they are
multiplied by ``REFERENCE_S`` over the median time of a fixed pure-Python
loop that each repeat times just before and just after its world run, in
as many processes at once as the world runs in
(``world_run.reference_s``).  The shared host's speed drifts by a third
and more over minutes; the loop drifts with it, the simulator's code
does not move it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
traced run, whose wrappers charge host time to layers, next to untraced
runs; it prints a per-layer table and the per-layer metrics, with
``trace.overhead_s`` = traced minus median untraced run phase.

Correctness checks, any of which makes the run exit 1:

* every repeat gives the same event count and outcome digest, and the
  traced run gives the same as the untraced ones;
* where ``pins.json`` pins this workload x seed, event count and digest
  equal the pin (pins come from ``pin.py``, which also proves the probes
  leave the event count of an uninstrumented run unchanged);
* ``grid_mp`` (multiprocess) gives the same events, load-group rows,
  segment traffic and operation samples as one ``--serial`` run of the
  same spec on the single wheel;
* ``CacheIndex.check()`` is empty on every serving frontend;
* the run issues at least 1,000 client operations, and every metric
  BENCHMARK.json declares is reported;
* the traced run leaves at most 5% of its run phase unattributed.

``attempted``/``failed`` in the result count world runs; a world run
fails when it crashes or breaks a check.  Discovery operations that find
nothing are the simulated system's failures, reported as ``fail_share``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORLD_RUN = os.path.join(HERE, "world_run.py")
PINS = os.path.join(HERE, "pins.json")

MIN_REPEATS = 3
MIN_OPERATIONS = 1_000
#: A single world run may not take longer than this (seconds).
CHILD_TIMEOUT_S = 150

#: A typical ``world_run.reference_s`` on the machine the bounds were set
#: on (2 vCPUs of a shared Xeon host, CPython 3.11).  Scaled host times
#: are seconds at that speed.
REFERENCE_S = 0.36

#: The traced run may leave at most this share of its run phase outside
#: every layer span and GC pause.
MAX_UNATTRIBUTED_SHARE = 0.05


def declared_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


class WorldRunError(RuntimeError):
    pass


def world_run(workload: str, seed: int, *flags: str, timeout: float) -> dict:
    """One world run in a fresh interpreter; its JSON result."""
    command = [
        sys.executable, WORLD_RUN, "--workload", workload, "--seed", str(seed), *flags
    ]
    # A session of its own, so that a timeout also kills the processes the
    # world run forked (workers, reference helpers).
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise WorldRunError(f"world run timed out after {timeout:.0f}s") from None
    if child.returncode != 0:
        raise WorldRunError(
            f"world run exited {child.returncode}:\n{stderr.strip()[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def load_pins() -> dict:
    try:
        with open(PINS) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check_runs(workload: str, seed: int, runs: list, traced, serial) -> list[str]:
    """Every correctness failure across the untraced runs, the traced one
    and the serial reference."""
    problems: list[str] = []
    first = runs[0]
    for i, run in enumerate(runs[1:], 1):
        if (run["events"], run["digest"]) != (first["events"], first["digest"]):
            problems.append(
                f"repeat {i} diverged: events {run['events']} digest {run['digest']} "
                f"vs {first['events']} {first['digest']}"
            )
    if traced is not None and (traced["events"], traced["digest"]) != (
        first["events"], first["digest"]
    ):
        problems.append(
            f"traced run diverged: events {traced['events']} digest "
            f"{traced['digest']} vs {first['events']} {first['digest']}"
        )
    if serial is not None and (serial["events"], serial["parity"]) != (
        first["events"], first["parity"]
    ):
        problems.append(
            f"multiprocess run differs from the single wheel: events "
            f"{first['events']} parity {first['parity']} vs {serial['events']} "
            f"{serial['parity']}"
        )
    pin = load_pins().get(workload, {}).get(str(seed))
    if pin is None:
        print(f"note: no pin for {workload} seed {seed}; checked repeat "
              "agreement only", file=sys.stderr)
    elif (pin["events"], pin["digest"]) != (first["events"], first["digest"]):
        problems.append(
            f"outcome differs from pins.json: events {first['events']} digest "
            f"{first['digest']} vs pinned {pin['events']} {pin['digest']}"
        )
    for run in runs + [r for r in (traced, serial) if r is not None]:
        problems += run["problems"]
    if first["ops"]["issued"] < MIN_OPERATIONS:
        problems.append(
            f"only {first['ops']['issued']} operations issued (< {MIN_OPERATIONS})"
        )
    return problems


def check_layers(layers: dict, declared: dict) -> list[str]:
    problems = []
    if set(layers) != set(declared):
        problems.append(
            f"per-layer metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(layers))}, undeclared "
            f"{sorted(set(layers) - set(declared))}"
        )
    run_phase = layers["trace.run_phase_s"]
    unattributed = layers["trace.unattributed_s"]
    if not 0 <= unattributed <= MAX_UNATTRIBUTED_SHARE * run_phase:
        problems.append(
            f"trace.unattributed_s {unattributed:.4f} outside [0, "
            f"{MAX_UNATTRIBUTED_SHARE:.0%} of the {run_phase:.3f} s run phase]"
        )
    return problems


def end_to_end(runs: list) -> dict:
    """Host times are medians over the repeats, scaled to the reference
    speed by the median reference loop time of the whole run."""
    first = runs[0]
    ops = first["ops"]
    host = [run["host"] for run in runs]
    scale = REFERENCE_S / statistics.median(
        t for h in host for t in h["reference_s"]
    )

    def median(key: str) -> float:
        return statistics.median(h[key] for h in host)

    values = {
        "setup_s": median("setup_s") * scale,
        "wall_s": median("wall_s") * scale,
        "events_per_s": statistics.median(first["events"] / h["run_s"] for h in host)
        / scale,
        "peak_rss_mb": median("peak_rss_mb"),
        "op_p50_us": ops["op_p50_us"],
        "op_p99_us": ops["op_p99_us"],
        "fail_share": ops["fail_share"],
        "hit_rate": ops["hit_rate"],
        "staleness_mean_us": ops["staleness_mean_us"],
        "wire_bytes_per_op": first["wire_bytes"] / ops["issued"],
    }
    return values


def layer_table(workload: str, layers: dict, untraced: list) -> str:
    """The traced run's account of its own time, beside the untraced run.
    For ``grid_mp`` the run phase is summed over the two workers.  All
    times here are host seconds, not scaled to the reference speed."""
    untraced_wall = statistics.median(r["host"]["wall_s"] for r in untraced)
    untraced_run = statistics.median(r["host"]["run_s"] for r in untraced)
    run_s = layers["trace.run_phase_s"]
    rows = [
        f"# {workload}: untraced wall {untraced_wall:.3f} s, run phase "
        f"{untraced_run:.3f}; traced run phase {run_s:.3f} "
        f"(trace.overhead_s {layers['trace.overhead_s']:.3f})",
        f"# {'layer':<14} {'self_s':>9} {'share':>7} {'calls':>9}",
    ]
    total = 0.0
    names = sorted(k[:-len(".self_s")] for k in layers if k.endswith(".self_s")
                   and not k.startswith(("world.build", "world.fill")))
    for name in names:
        self_s = layers[f"{name}.self_s"]
        total += self_s
        rows.append(f"# {name:<14} {self_s:9.3f} {self_s / run_s:7.1%} "
                    f"{layers.get(name + '.calls', 0):9d}")
    for name, value in (("gc", layers["gc.pause_s"]),
                        ("unattributed", layers["trace.unattributed_s"])):
        total += value
        rows.append(f"# {name:<14} {value:9.3f} {value / run_s:7.1%}")
    rows.append(f"# {'sum':<14} {total:9.3f} {total / run_s:7.1%}  "
                f"(gc: {layers['gc.collections']} collections, max "
                f"{layers['gc.max_pause_ms']:.1f} ms)")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        e2e_units, layer_units = declared_units()
    except FileNotFoundError:
        print(f"error: no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    attempted = 0
    errors: list[str] = []
    runs: list[dict] = []
    traced = serial = None

    def attempt(*flags: str):
        nonlocal attempted
        attempted += 1
        left = max(30.0, CHILD_TIMEOUT_S - (time.perf_counter() - start))
        try:
            return world_run(args.workload, args.seed, *flags, timeout=left)
        except WorldRunError as exc:
            errors.append(str(exc))
            return None

    if WORKLOADS[args.workload][2]:
        serial = attempt("--serial")
    if args.trace and not errors:
        traced = attempt("--trace")
    minimum = 1 if args.trace else MIN_REPEATS
    while not errors:
        elapsed = time.perf_counter() - start
        per_run = elapsed / attempted if attempted else 0.0
        if len(runs) >= minimum and elapsed + per_run > args.seconds:
            break
        run = attempt()
        if run is not None:
            runs.append(run)
            print("repeat " + json.dumps(run["host"], sort_keys=True), file=sys.stderr)

    problems: list[str] = []
    metrics: dict = {}
    if runs and (traced is not None or not args.trace):
        problems = check_runs(args.workload, args.seed, runs, traced, serial)
        if args.trace:
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["host"]["run_s"] - statistics.median(
                r["host"]["run_s"] for r in runs
            )
            if serial is not None:
                layers["engine.serial_run_s"] = serial["host"]["run_s"]
            print(layer_table(args.workload, layers, runs))
            problems += check_layers(layers, layer_units)
            metrics = {
                name: {"value": value, "unit": layer_units[name]}
                for name, value in sorted(layers.items()) if name in layer_units
            }
        else:
            values = end_to_end(runs)
            missing = [name for name, value in values.items() if value is None]
            if missing or set(values) != set(e2e_units):
                problems.append(f"metrics not measured: {missing}; declared "
                                f"{sorted(e2e_units)}, measured {sorted(values)}")
            metrics = {
                name: {"value": value, "unit": e2e_units[name]}
                for name, value in values.items() if value is not None
            }
    for problem in errors + problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    # A check spans every completed run, so a failed check fails them all.
    failed = attempted if problems else len(errors)
    correct = not errors and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
