"""Command line: ``python -m bench {measure,run,compare}``.

``measure`` runs one workload once and prints one JSON line (the
interface ``BENCHMARK.json`` names); ``run`` drives every workload for
several rounds in fresh processes and writes a record file;
``compare`` judges two record files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SRC
from .spec import WORKLOADS


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("measure", help="run one workload once; print one "
                                         "JSON result line")
    one.add_argument("--workload", required=True, choices=WORKLOADS)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=int, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--record", default=None,
                     help="also write the full record (metrics, checks, "
                          "host fingerprint) to this JSON file")

    run = sub.add_parser("run", help="every workload, several rounds, one "
                                     "record file")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="repeatable; default: all five")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--rounds", type=int, default=5)
    run.add_argument("--seconds", type=int, default=None,
                     help="workload size (default: BENCHMARK.json "
                          "run_seconds)")
    run.add_argument("--trace", action="store_true",
                     help="add one traced run per workload")
    run.add_argument("--out", required=True)

    cmp = sub.add_parser("compare", help="judge NEW against BASE")
    cmp.add_argument("base")
    cmp.add_argument("new")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare_files

        report, regressed = compare_files(args.base, args.new)
        print(report)
        return 1 if regressed else 0

    if not (SRC / "repro").is_dir():
        print(f"bench: no repro package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from .runner import contract_line, format_result, measure, run_rounds

    if args.command == "measure":
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        if args.record:
            with open(args.record, "w") as fh:
                json.dump(record, fh, indent=1)
        print(json.dumps(contract_line(record)))
        return 0

    from .spec import load_benchmark_json

    seconds = args.seconds or load_benchmark_json()["run_seconds"]
    result = run_rounds(args.workload or list(WORKLOADS), args.seed,
                        args.rounds, seconds, args.trace,
                        emit=lambda line: print(line, flush=True))
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(format_result(result))
    print(f"wrote {args.out}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
