#!/usr/bin/env python3
"""Build the rtcad benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The OCaml program (perfbench/main.ml)
does the measuring and checking; this wrapper builds it with dune, runs
it, relays its output (the last stdout line is the result object) and
exits with its status.  Build output goes to stderr.

The program runs with one worker domain (RTCAD_JOBS=1) unless the
environment sets RTCAD_JOBS.  At two jobs its threads and domains wait
on each other (every minor collection, for one, stops both domains), so
on a 2-vCPU VM a vCPU that the host takes away for a while stalls the
whole pass: with a CPU hog on one vCPU, serve_mix passes went from 2.2
to 4.5 s and sim_stream passes from 2.6 to 4.8 s at two jobs, and moved
by 5% or less at one.  Set RTCAD_JOBS=2 to measure the parallel paths.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd in the checkout root, in a process group of its own (the
    benchmark forks a process per cold pass); on timeout kill the group
    and wait for cmd."""
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env, start_new_session=True
        )
    except OSError as e:
        fail("cannot start %s: %s" % (cmd[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s here: run from an rtcad checkout" % needed)
    code, out = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        # Build inside the checkout only: no shared cache under $HOME.
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    sys.stderr.write(out.decode(errors="replace"))
    if code != 0:
        fail("build failed")
    env = dict(os.environ)
    env.setdefault("RTCAD_JOBS", "1")
    code, out = run([os.path.join(ROOT, EXE), "run"] + sys.argv[1:], RUN_TIMEOUT_S, env=env)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
