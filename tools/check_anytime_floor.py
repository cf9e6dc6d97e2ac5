#!/usr/bin/env python3
"""CI gate: pinned floors on the anytime dispatch quality curve under storm.

Reads the telemetry of one run,

  AR_FAULT_PROFILE=storm morning_peak --orders 600 --vehicles 80 --trnd 20

and enforces the anytime contract from docs/ROBUSTNESS.md:

  * the run hits the budget (anytime.truncated_rounds > 0) and keeps
    finalized winners at the cut (anytime.partial_winners > 0);
  * it dispatches at least 105 orders. That is what the retired
    all-or-nothing cliff (an expired tier discarded wholly, the next tier
    restarted with a fresh budget) dispatched on this run; the anytime curve
    dispatched 109 when the floor was pinned. Best-so-far truncation must
    never fall below it.

The storm budget is synthetic (per-query charges, not wall clock), so the
outcome counters are the same on any runner and under any sanitizer.

Usage:
  check_anytime_floor.py BENCH_morning_peak.json
"""

import json
import sys

TRUNCATED = "auction.dispatch.anytime.truncated_rounds"
PARTIAL = "auction.dispatch.anytime.partial_winners"
CLIFF_DISPATCHED = 105
# The run the floor was pinned on (morning_peak records these flags only).
EXPECTED_CONFIG = {"mechanism": "Rank+DnW", "seed": 1, "trnd_s": 20}


def fail(message):
    print(f"anytime floor gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) != 2:
        fail(f"usage: {argv[0]} BENCH_morning_peak.json")
    with open(argv[1]) as f:
        report = json.load(f)

    config = report["config"]
    for key, want in EXPECTED_CONFIG.items():
        if config.get(key) != want:
            fail(f"config {key} = {config.get(key)!r}, expected {want!r}; "
                 "the floor was pinned on a different run")

    counters = report["metrics"]["counters"]
    truncated = counters.get(TRUNCATED, 0)
    partial = counters.get(PARTIAL, 0)
    if truncated <= 0:
        fail(f"storm run never hit the budget ({TRUNCATED} == 0); "
             "the gate exercised nothing")
    if partial <= 0:
        fail(f"storm run kept no winners at the cut ({PARTIAL} == 0)")

    dispatched = config["orders_dispatched"]
    if dispatched < CLIFF_DISPATCHED:
        fail(f"storm run dispatched {dispatched} orders, below the cliff's "
             f"{CLIFF_DISPATCHED}; best-so-far truncation must not fall "
             "below abandoning the attempt")
    print(f"anytime floor gate: truncated_rounds = {truncated}, "
          f"partial_winners = {partial}, dispatched {dispatched} >= "
          f"{CLIFF_DISPATCHED} (cliff floor)")
    print("anytime floor gate: PASS")


if __name__ == "__main__":
    main(sys.argv)
