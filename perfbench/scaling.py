#!/usr/bin/env python3
"""One-off scaling table for the sweep-large generator (not gated).

    python3 perfbench/scaling.py --replicas 1,10,40,160 --seed 1

For each K, writes repoA x K into `.perfbench/scaling-<K>` and runs one
`exbt sweep` in a fresh child process, reporting its wall time, CPU time
and peak RSS. One pass per K: use it to see how the sweep grows with
repository size, not to compare commits.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

import gen_sweep
from run import CHILD, ROOT, WORK_ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--replicas", default="1,10,40,160")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("| K | .java files | throw targets | wall s | CPU s | peak RSS MB |")
    print("|---|---|---|---|---|---|")
    for k in (int(x) for x in args.replicas.split(",")):
        work = WORK_ROOT / f"scaling-{k}"
        shutil.rmtree(work, ignore_errors=True)
        repo = work / "repo"
        gen_sweep.write_repo(repo, k, args.seed)
        argv = ["sweep", str(repo), "--seed", str(args.seed), "--backend", "stub",
                "--runner", "recorded", "--out", str(work / "out")]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD] + argv, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            print(f"K={k}: sweep failed with rc {proc.returncode}", file=sys.stderr)
            return 1
        cpu = usage.ru_utime + usage.ru_stime
        print(f"| {k} | {7 * k} | {6 * k} | {wall:.2f} | {cpu:.2f} "
              f"| {usage.ru_maxrss / 1024:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
