"""Command line front end: one experiment of ``coarse_embed.experiments``
per invocation, its rows written as a CSV and a JSON report side by side
with one FAILED row (detail and witness) per failing check.  Exit codes:
0 every check held, 1 a check failed, 2 configuration error (nothing is
written), 3 size cap exceeded.  A traceback is a bug.  A JSON config file
may supply any parameter and flags override it; the environment variable
COARSE_EMBED_CAP bounds construction sizes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, ConfigError
from .experiments import EXPERIMENTS
from .reports import write_report

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coarse-embed",
        description="measure covers, kernels and embeddings on finite windows")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="report", help="output path base")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config entry")
    return parser


def load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def failed_rows(checks):
    """One FAILED row (detail and witness) per failing check."""
    return [{"check": "FAILED", "detail": f"{c.name}: {c.value} (bound {c.bound})",
             "witness": repr(c.witness)} for c in checks if not c.ok]


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        result = EXPERIMENTS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    failed = failed_rows(result.checks)
    csv_path, json_path = write_report(
        args.out, result.rows + failed,
        meta={"experiment": args.experiment, "config": cfg})
    status = EXIT_ASSERT if failed else EXIT_OK
    print(f"wrote {csv_path} and {json_path}; status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
