"""Command-line entry point.

Subcommands: train-unimodal, train-bimodal, verify, gen-data, dump-tau.
Shared flags: --config <path>, --seed <int64>, --out <dir>, --set key=value
(repeatable).  The seed is a signed 64-bit integer, in [-2**63, 2**63).
Exit status 0 means success, 1 a failed verify check, 2 bad input; errors
print as one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgcl")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train-unimodal", "train-bimodal", "verify", "gen-data", "dump-tau"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="config override, repeatable",
        )
    return parser


def _resolve_config(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append("seed=%d" % args.seed)
    if args.out is not None:
        overrides.append("out=%s" % args.out)
    return harness.apply_overrides(cfg, overrides)


def _run(command: str, cfg: harness.ExperimentConfig) -> int:
    if command == "train-unimodal":
        report = harness.run_train_unimodal(cfg)
        print("trained %d steps; knn accuracy %.4f" % (report["steps"], report["knn_accuracy"]))
        return 0
    if command == "train-bimodal":
        cfg = harness.apply_overrides(cfg, ["mode=bimodal"])
        report = harness.run_train_bimodal(cfg)
        print("trained %d steps; knn accuracy %.4f" % (report["steps"], report["knn_accuracy"]))
        return 0
    if command == "verify":
        report = harness.run_verify(cfg)
        for check in report["checks"]:
            print("%-32s %s" % (check["name"], "PASS" if check["passed"] else "FAIL"))
        return 0 if report["all_passed"] else 1
    if command == "gen-data":
        path = harness.run_gen_data(cfg)
        print("wrote %s" % path)
        return 0
    if command == "dump-tau":
        path = harness.run_dump_tau(cfg)
        print("wrote %s" % path)
        return 0
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return _run(args.command, cfg)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
