"""Command-line front end.

Exit codes: 0 success, 1 validation/schema error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NumericalError, ValidationError
from .pipeline import (cmd_correlate, cmd_detect, cmd_infer, cmd_report,
                       cmd_simulate, load_pipeline_config, schema_text)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _add_common(sub, schema_names):
    sub.add_argument("--outdir", type=Path, required=False,
                     help="run directory for stage inputs/outputs")
    sub.add_argument("--schema", action="store_true",
                     help="print the file formats this command reads/writes")
    sub.set_defaults(schema_names=schema_names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jjtls",
        description="TLS detection and density inference pipeline for "
                    "JJ-array resonator sweeps")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="synthesize a curve-following sweep")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    _add_common(p, ["pipeline", "scenario", "trace"])

    p = subs.add_parser("detect", help="fit traces, calibrate, find TLS events")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    _add_common(p, ["pipeline", "trace", "fits", "series", "events",
                    "calibration", "detection_meta"])

    p = subs.add_parser("infer", help="posterior TLS count and density")
    p.add_argument("--config", type=Path, help="pipeline config JSON")
    _add_common(p, ["pipeline", "detection_meta", "calibration", "posterior",
                    "estimate"])

    p = subs.add_parser("correlate", help="treatment and morphology statistics")
    p.add_argument("--densities", type=Path, help="per-resonator densities CSV")
    p.add_argument("--morphology", type=Path, help="per-device morphology CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=100,
                   help="permutation importance repeats")
    _add_common(p, ["densities", "morphology"])

    p = subs.add_parser("report", help="consolidate stage manifests")
    _add_common(p, ["manifest"])

    p = subs.add_parser("schema", help="print documented file formats")
    p.add_argument("name", nargs="?", help="one schema name (default: all)")
    return parser


def _load_config(args) -> dict:
    if args.config is None:
        raise ValidationError("--config is required")
    cfg = load_pipeline_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = int(args.seed)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "schema":
            print(schema_text(args.name))
            return EXIT_OK
        if getattr(args, "schema", False):
            for name in args.schema_names:
                print(schema_text(name))
            return EXIT_OK

        if args.command == "report":
            if args.outdir is None:
                raise ValidationError("--outdir is required")
            summary = cmd_report(args.outdir)
            print(json.dumps({"stages": sorted(summary["stages"])},
                             sort_keys=True))
            return EXIT_OK

        if args.command == "correlate":
            if args.densities is None or args.morphology is None or args.outdir is None:
                raise ValidationError("--densities, --morphology and --outdir "
                                      "are required")
            args.outdir.mkdir(parents=True, exist_ok=True)
            out = cmd_correlate(args.densities, args.morphology, args.outdir,
                                seed=args.seed, repeats=args.repeats)
            print(json.dumps({k: out[k] for k in ("treatments", "ranking")},
                             sort_keys=True))
            return EXIT_OK

        if args.outdir is None:
            raise ValidationError("--outdir is required")
        cfg = _load_config(args)
        args.outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            out = cmd_simulate(cfg, args.outdir)
        elif args.command == "detect":
            out = cmd_detect(cfg, args.outdir)
        elif args.command == "infer":
            out = cmd_infer(cfg, args.outdir)
        else:  # pragma: no cover
            raise ValidationError(f"unknown command {args.command!r}")
        print(json.dumps(out, sort_keys=True))
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
