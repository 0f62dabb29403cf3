"""Command-line front end.

Exit codes: 0 success, 1 validation/schema or file-system error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _add_common(sub):
    sub.add_argument("--outdir", type=Path, required=False,
                     help="run directory for stage inputs/outputs")
    sub.add_argument("--schema", action="store_true",
                     help="print the file formats this command reads/writes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjtls",
        description="TLS detection and density inference pipeline for "
                    "JJ-array resonator sweeps")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="synthesize a curve-following sweep")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    p.add_argument("--seed", help="override the config seed (integer >= 0)")
    _add_common(p)

    p = subs.add_parser("detect", help="fit traces, calibrate, find TLS events")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    p.add_argument("--seed", help="override the config seed (integer >= 0)")
    _add_common(p)

    p = subs.add_parser("infer", help="posterior TLS count and density")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    _add_common(p)

    p = subs.add_parser("correlate", help="treatment and morphology statistics")
    p.add_argument("--densities", type=Path, help="per-resonator densities CSV")
    p.add_argument("--morphology", type=Path, help="per-device morphology CSV")
    p.add_argument("--seed", default="0", help="permutation seed (integer >= 0)")
    p.add_argument("--repeats", default="100",
                   help="permutation importance repeats (integer >= 2)")
    _add_common(p)

    p = subs.add_parser("report", help="consolidate stage manifests")
    _add_common(p)

    p = subs.add_parser("schema", help="print documented file formats")
    p.add_argument("name", nargs="?", help="one schema name (default: all)")
    return parser


def _seed(text: str) -> int:
    """``--seed`` checked as a config seed is (argparse would exit 2 on "1.5")."""
    from .fileio import checked_seed
    return checked_seed(int(text) if text.isdecimal() else text, "--seed")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # imported once parsed, so --help and usage errors load no numpy; each cmd_*
    # imports the scipy-backed modules it runs
    from .fileio import load_pipeline_config, schema_text
    from .pipeline import cmd_correlate, cmd_detect, cmd_infer, cmd_report, cmd_simulate
    try:
        if args.command == "schema":
            print(schema_text(args.name), flush=True)
            return EXIT_OK
        if getattr(args, "schema", False):
            print(schema_text(stage=args.command), flush=True)
            return EXIT_OK

        if args.command == "report":
            if args.outdir is None:
                raise ValidationError("--outdir is required")
            summary = cmd_report(args.outdir)
            print(json.dumps({"stages": sorted(summary["stages"])},
                             sort_keys=True), flush=True)
            return EXIT_OK

        if args.command == "correlate":
            if args.densities is None or args.morphology is None or args.outdir is None:
                raise ValidationError("--densities, --morphology and --outdir "
                                      "are required")
            seed = _seed(args.seed)
            if not args.repeats.isdecimal():  # an integer below 2 is cmd_correlate's error
                raise ValidationError(f"--repeats must be an int >= 2, got {args.repeats!r}")
            args.outdir.mkdir(parents=True, exist_ok=True)
            out = cmd_correlate(args.densities, args.morphology, args.outdir,
                                seed=seed, repeats=int(args.repeats))
            print(json.dumps({k: out[k] for k in ("treatments", "ranking")},
                             sort_keys=True), flush=True)
            return EXIT_OK

        if args.outdir is None:
            raise ValidationError("--outdir is required")
        if args.config is None:
            raise ValidationError("--config is required")
        seed = getattr(args, "seed", None)  # infer takes no --seed
        cfg = load_pipeline_config(args.config, None if seed is None else _seed(seed))
        if args.command == "simulate":
            args.outdir.mkdir(parents=True, exist_ok=True)
            out = cmd_simulate(cfg, args.outdir)
        elif args.command == "detect":
            out = cmd_detect(cfg, args.outdir)
        elif args.command == "infer":
            out = cmd_infer(cfg, args.outdir)
        else:  # pragma: no cover
            raise ValidationError(f"unknown command {args.command!r}")
        print(json.dumps(out, sort_keys=True), flush=True)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader closed the pipe (`jjtls schema | head`): stop quietly;
        # stdout goes to devnull so the interpreter's final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
