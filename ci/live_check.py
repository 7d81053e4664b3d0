#!/usr/bin/env python3
"""CI consistency gate: live telemetry plane vs offline analyzer.

Usage: live_check.py <aio-live.jsonl> <aio-report.json>

The live plane (src/obs/live.cpp) and the analyzer (src/obs/analysis.cpp)
fold the identical journal record stream through one obs::Fold
(src/obs/fold.hpp): the same writer slots, OST load integrals and wait
partition.  Only the summation order differs (the live plane adds writers as
they complete, the analyzer in rank order), so the final live row's
cumulative attribution must agree with the report's summary.attribution to
floating-point noise.  This script fails (exit 1) on any component drifting
past 1e-6 relative — the tolerance a window-accounting bug (a slot double
count, a missed roll-over, a dropped writer) cannot hide under.
"""
import json
import sys

TOL = 1e-6
KEYS = ("total_wait_s", "internal_s", "external_s", "mds_s", "network_s")


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    live_path, report_path = sys.argv[1], sys.argv[2]

    rows = [json.loads(line) for line in open(live_path) if line.strip()]
    if not rows:
        print(f"live_check: {live_path} has no rows", file=sys.stderr)
        return 1
    finals = [r for r in rows if r.get("final")]
    if len(finals) != 1:
        print(f"live_check: expected exactly one final row, got {len(finals)}",
              file=sys.stderr)
        return 1
    final = finals[0]
    if final.get("schema") != "aio-live-v1":
        print(f"live_check: bad schema {final.get('schema')!r}", file=sys.stderr)
        return 1
    live = final["attribution"]

    report = json.load(open(report_path))
    offline = report["summary"]["attribution"]

    failures = []
    for key in KEYS:
        a, b = live[key], offline[key]
        if abs(a - b) > TOL * max(1.0, abs(b)):
            failures.append(f"  {key}: live={a!r} offline={b!r} "
                            f"(|diff|={abs(a - b):.3e})")
    live_writers = final["cumulative"]["writers"]
    offline_writers = report["summary"]["writers"]
    if live_writers != offline_writers:
        failures.append(f"  writers: live={live_writers} offline={offline_writers}")

    if failures:
        print("live_check: live plane disagrees with offline analyzer:",
              file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1

    share = {k: live[k] / live["total_wait_s"] if live["total_wait_s"] > 0 else 0.0
             for k in KEYS[1:]}
    print(f"live_check ok: {len(rows)} rows, {int(live_writers)} writers, "
          f"total_wait={live['total_wait_s']:.3f}s "
          f"(int {share['internal_s']:.2f} / ext {share['external_s']:.2f} / "
          f"mds {share['mds_s']:.2f} / net {share['network_s']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
