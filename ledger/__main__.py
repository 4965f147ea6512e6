"""Command line of the ledger; see ``ledger/README.md``."""

from __future__ import annotations

import argparse


def main() -> None:
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    parser.add_argument("--workload", help="run this one workload and print its metrics")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny data, for tests")
    parser.add_argument("--out", help="run all six workloads and write this ledger file")
    args = parser.parse_args()

    from . import bench

    bench.pin_environment()
    bench.use_repo_sources()
    seconds = args.seconds or float(bench.load_spec()["run_seconds"])
    if args.workload:
        from . import run

        run.print_result(
            args.workload,
            run.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke),
        )
    elif args.out:
        from . import full

        full.run_all(args.seed, seconds, args.smoke, args.out)
    else:
        parser.error("give --workload NAME, or --out FILE to run the whole ledger")


if __name__ == "__main__":
    main()
