#!/usr/bin/env python3
"""Byte-identical stdout gate for the deterministic benches and examples.

With every AIO_* variable removed from the environment and only the caps
below set, each program's stdout must equal its expected file
ci/stdout/<program>.txt byte for byte.  The simulator is seeded, so any
difference means a change moved a simulated number or a printed line.

Usage:
  stdout_check.py BUILD             run every program, compare its stdout
  stdout_check.py BUILD --negative  flip one byte of an in-memory copy of
                                    quickstart's expected file and succeed
                                    only if the check then fails (proves
                                    the gate can fail)
  stdout_check.py BUILD --write     regenerate the expected files from
                                    BUILD's programs, for a change meant to
                                    move a printed number

BUILD is a CMake build tree holding bench/ and examples/.
"""
import argparse
import difflib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "stdout"

BENCH_CAPS = {"AIO_BENCH_MAX_PROCS": "2048", "AIO_BENCH_SAMPLES": "2"}

# (program, directory under BUILD, extra environment)
PROGRAMS = [
    (name, "bench", BENCH_CAPS)
    for name in (
        "ablation_concurrency",
        "ablation_stagger",
        "ablation_stealing",
        "ablation_targets",
        "ext_cross_machine",
        "ext_history_targets",
        "ext_readback",
        "ext_staging",
        "ext_steal_policy",
        "fig1_internal_interference",
        "fig3_imbalance",
        "fig5_pixie3d",
        "fig6_xgc1",
        "fig7_variability",
    )
] + [
    ("table1_external_interference", "bench",
     dict(BENCH_CAPS, AIO_BENCH_TABLE1_SAMPLES="20")),
    # At 2048 writers the storm sweep runs no row.
    ("macro_createstorm", "bench", {"AIO_BENCH_MAX_PROCS": "16384"}),
] + [
    # local_files_demo is left out: it runs real threads.
    (name, "examples", {})
    for name in ("quickstart", "pixie3d_checkpoint", "xgc1_restart",
                 "s3d_species_query", "interference_study")
]


def run(build, name, subdir, extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIO_")}
    env.update(extra)
    proc = subprocess.run([str(build / subdir / name)], env=env, capture_output=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{name} exited with status {proc.returncode}")
    return proc.stdout


def mismatch(name, got, want):
    """The program's name and a short diff of expected against actual."""
    diff = difflib.unified_diff(want.decode(errors="replace").splitlines(),
                                got.decode(errors="replace").splitlines(),
                                f"expected/{name}", f"actual/{name}", lineterm="", n=1)
    return f"{name}: stdout differs from ci/stdout/{name}.txt\n" + \
        "\n".join(list(diff)[:40])


def check(build, programs, flip=False):
    failures = []
    for name, subdir, extra in programs:
        want = (EXPECTED / f"{name}.txt").read_bytes()
        if flip:
            # Flip one byte in the middle of the expected text.
            i = len(want) // 2
            want = want[:i] + bytes([want[i] ^ 0x01]) + want[i + 1:]
        got = run(build, name, subdir, extra)
        if got != want:
            failures.append(mismatch(name, got, want))
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build", type=pathlib.Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--negative", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.write:
        EXPECTED.mkdir(exist_ok=True)
        for name, subdir, extra in PROGRAMS:
            (EXPECTED / f"{name}.txt").write_bytes(run(args.build, name, subdir, extra))
        print(f"stdout_check: wrote {len(PROGRAMS)} expected files")
        return 0
    if args.negative:
        quickstart = [p for p in PROGRAMS if p[0] == "quickstart"]
        if not check(args.build, quickstart, flip=True):
            print("stdout_check --negative: a flipped byte went unnoticed", file=sys.stderr)
            return 1
        print("stdout_check --negative: the flipped byte was caught")
        return 0
    failures = check(args.build, PROGRAMS)
    for f in failures:
        print(f, file=sys.stderr)
    if failures:
        return 1
    print(f"stdout_check: {len(PROGRAMS)} programs byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
