"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload {census,certify,stream_scan}
        [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the program is imported from
`src/`. Without those sources the run stops with exit code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from pathlib import Path

WORKLOAD_NAMES = ("census", "certify", "stream_scan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "hamclass" / "__init__.py").is_file():
        print(f"error: hamclass sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    from perfbench.harness import run

    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    finally:
        stop_children()


def stop_children() -> None:
    """End every process this run started and wait for each, before exiting.

    Speedometers, scan pools and the certify pool are joined where they
    are used; this catches any left by an error. Spawned processes also
    start multiprocessing's resource tracker, which would otherwise end
    only after this process has exited, unwaited for.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
