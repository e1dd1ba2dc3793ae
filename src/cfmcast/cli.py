"""Command line front end: run a campaign from a preset or a JSON config."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import PRECODERS, SystemConfig, preset
from .errors import CampaignError, ConfigError
from .harness import run_campaign, write_outputs, write_partial

# the SystemConfig fields that a flag overrides, each flag stored under its field's name
OVERRIDES = ("precoder", "n_groups", "snapshots", "realizations", "master_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo downlink sum-SE campaigns for cell-free multicast.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="named configuration (e.g. desk_uniform, fig3)")
    source.add_argument("--config", help="path to a JSON config mirroring SystemConfig")
    parser.add_argument("--precoder", choices=PRECODERS, help="override the precoder")
    parser.add_argument(
        "--groups", dest="n_groups", metavar="GROUPS", type=int,
        help="override the multicast group count (1: single, n_ms: unicast)",
    )
    parser.add_argument("--snapshots", type=int, help="override the snapshot count")
    parser.add_argument("--realizations", type=int, help="override realizations per snapshot")
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="override the master seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel snapshot workers (default 1)")
    parser.add_argument("--out", help="output directory (default: simout_<config hash>)")
    return parser


def resolve_config(args) -> SystemConfig:
    cfg = preset(args.preset) if args.preset else SystemConfig.from_json(args.config)
    return cfg.with_overrides(**{k: getattr(args, k) for k in OVERRIDES if getattr(args, k) is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or f"simout_{cfg.config_hash()}"
    # fail before the campaign if the outputs cannot be written, creating nothing
    existing = os.path.abspath(out_dir)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        print(f"error: cannot write outputs to {out_dir}: {existing} is not a directory", file=sys.stderr)
        return 2
    try:
        result = run_campaign(cfg, workers=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignError as exc:
        write_partial(exc.partial, exc.failed_snapshot, str(exc), out_dir)
        print(f"error: {exc} (partial results in {out_dir})", file=sys.stderr)
        return 1
    write_outputs(result, out_dir)
    print(
        f"{cfg.snapshots} snapshots, median sum SE "
        f"{float(np.median(result.samples)):.3f} bit/s/Hz (per user), "
        f"outputs in {out_dir}"
    )
    return 0
