"""Command-line interface.

    relwave list
    relwave run --config FILE [--scenario NAME] [--out-dir DIR]
    relwave run --scenario NAME [--out-dir DIR]
    relwave verify

Exit codes: 0 success, 1 configuration error (a usage error and an output
directory that cannot be made too), 2 numeric non-convergence, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import ScenarioError, list_scenarios, load_config, resolve_scenario, run

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_INTERNAL = 3


def _cmd_list(_args) -> int:
    for name, desc in list_scenarios():
        print(f"{name:8s} {desc}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        if args.config:
            scenarios = load_config(args.config)
            if args.scenario:
                scenarios = [s for s in scenarios if s.name == args.scenario]
                if not scenarios:
                    raise ScenarioError(
                        f"scenario {args.scenario!r} not in {args.config}"
                    )
        elif args.scenario:
            scenarios = [resolve_scenario(args.scenario)]
        else:
            raise ScenarioError("provide --config and/or --scenario")
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except (ScenarioError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    worst = EXIT_OK
    for scn in scenarios:
        try:
            manifest = run(scn, out_dir=args.out_dir)
        except ScenarioError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ArithmeticError as exc:
            print(f"numeric error in {scn.name}: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_NUMERIC)
            continue
        n_out = len(manifest.outputs)
        print(f"{scn.name}: {n_out} output file(s) in {args.out_dir} "
              f"({manifest.wall_time_s:.1f}s)")
    return worst


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    records = run_all(verbose=True)
    n_fail = sum(1 for r in records if not r.passed and not r.known_failure)
    return EXIT_OK if n_fail == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relwave",
        description="Relativistic wavepacket scenarios: densities, Gaussianity "
                    "metrics, spectra, and phase traces as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {"list": sub.add_parser("list", help="list builtin scenarios")}

    p_run = commands["run"] = sub.add_parser("run", help="run scenarios")
    p_run.add_argument("--config", help="INI config file with scenario sections")
    p_run.add_argument("--scenario", help="scenario name (builtin or from config)")
    p_run.add_argument("--out-dir", default="out", help="output directory")

    commands["verify"] = sub.add_parser("verify", help="run the acceptance checks")

    try:
        # an unknown option is reported with the usage line of its command, or
        # of the root if it comes before the command (the root takes only -h)
        args, extra = parser.parse_known_args(argv)
        if extra:
            first = (sys.argv[1:] if argv is None else argv).index(args.command) == 0
            (commands[args.command] if first else parser).error(
                f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 for --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except KeyboardInterrupt:  # pragma: no cover
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
