"""Command-line interface: validate, run and sweep scenarios.

Exit codes: 0 ok, 2 validation failure, 3 I/O error, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .config import ScenarioError, decode_scenario, load_scenario
from .report import build_report, write_json, write_report
from .scenario import sweep

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep exit codes stable
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(least: int):
    """argparse type: an integer >= least; anything else is a usage error."""
    def integer(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n
    return integer


def default_scenario_path() -> Path:
    return Path(str(resources.files("iolw5gsim").joinpath("data/default.scenario")))


def _load(path: str):
    """Scenario and raw bytes of a config file; main prints its diagnostics."""
    config_bytes = Path(path).read_bytes()
    return load_scenario(decode_scenario(config_bytes)), config_bytes


def _cmd_validate(args: argparse.Namespace) -> int:
    _load(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    """run is the one-seed sweep: the same report, without per_seed.json."""
    scenario, config_bytes = _load(args.config)
    seeds = [args.seed + i for i in range(args.seeds)]
    result = sweep(scenario, seeds, args.parallel)
    out_dir = Path(args.out)
    report = build_report(result, scenario, config_bytes, deterministic=args.deterministic)
    written = write_report(report, result, out_dir, fmt=args.format)
    if args.command == "run":
        summary = {
            "end_to_end_mean_us": report["end_to_end"].get("mean_us"),
            "p99_us": report["end_to_end"].get("p99_us"),
            "losses": result.losses,
            "files": [str(p) for p in written],
        }
    else:
        per_seed = {
            str(r.seeds[0]): {
                "toggles": r.toggles,
                "losses": r.losses,
                "mean_us": r.end_to_end.mean_us if r.end_to_end.count else None,
            }
            for r in result.per_seed
        }
        write_json(out_dir / "per_seed.json", per_seed)
        summary = {"seeds": seeds, "toggles": result.toggles}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iolw5gsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    for name in ("run", "sweep"):
        p = sub.add_parser(name, help=f"{name} a scenario")
        p.add_argument("config")
        p.add_argument("--seed", type=_at_least(0), default=1)
        p.add_argument("--out", default="out")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument(
            "--deterministic", action="store_true",
            help="suppress timestamps so reports are byte-identical on replay",
        )
        if name == "sweep":
            p.add_argument("--seeds", type=_at_least(1), help="number of seeds")
            p.add_argument("--parallel", type=_at_least(1))
        p.set_defaults(func=_cmd_simulate, seeds=1, parallel=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ScenarioError as exc:
        for d in exc.diagnostics:
            print(f"{args.config}:{d}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"iolw5gsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
