#!/usr/bin/env python3
"""Chrome-trace export gate (CI).

Checks a trace written by `aio_report <journal> --trace trace.json` against
the aio-report-v1 document for the same journal: the trace must parse,
otherData.events must count every non-metadata event, every critical-path
track (pid 6, one per run) must pair its B/E spans, and the number of pid-6
B events must equal the total number of critical-path segments in the
report.  Usage: trace_check.py trace.json report.json; exits non-zero on the
first violated invariant, so CI can also use it as the oracle for the
deleted-span negative test.
"""
import collections
import json
import sys

PID_PATH = 6


def check(trace_path, report_path):
    trace = json.load(open(trace_path))
    rep = json.load(open(report_path))
    assert rep.get("schema") == "aio-report-v1", rep.get("schema")
    events = trace["traceEvents"]
    timed = [e for e in events if e["ph"] != "M"]
    claimed = trace["otherData"]["events"]
    assert claimed == len(timed), \
        f"{trace_path}: otherData.events {claimed} != {len(timed)} non-metadata events"
    # B/E balance per critical-path track: never closes more than it opened,
    # and every span it opens is closed.
    depth = collections.Counter()
    for e in timed:
        if e["pid"] != PID_PATH or e["ph"] not in "BE":
            continue
        depth[e["tid"]] += 1 if e["ph"] == "B" else -1
        assert depth[e["tid"]] >= 0, \
            f"{trace_path}: run {e['tid']} path track ends a span it never began"
    open_tracks = {tid: d for tid, d in depth.items() if d}
    assert not open_tracks, f"{trace_path}: unclosed path spans per run {open_tracks}"
    begins = sum(1 for e in timed if e["pid"] == PID_PATH and e["ph"] == "B")
    segments = sum(len(run["critical_path"]["segments"])
                   for run in rep["runs"] if run.get("critical_path"))
    assert segments > 0, f"{report_path}: no critical-path segments to compare"
    assert begins == segments, \
        f"{trace_path}: {begins} path spans, but {report_path} has {segments} segments"
    print(f"{trace_path}: {len(timed)} events, {begins} path spans over "
          f"{len(depth)} runs match {report_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} trace.json report.json")
    check(sys.argv[1], sys.argv[2])
