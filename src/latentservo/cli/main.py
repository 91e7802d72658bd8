"""Command-line entry point.

    latentservo <stage> --config experiment.ini [--force] [--seed N] [--out DIR]
    latentservo report [--config experiment.ini | --out RUN_DIR]

Exit codes: 0 success, 2 configuration error, 3 stage failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..representations import ConfigError, WeightFormatError
from .commands import STAGE_TABLE, StageFailure, ensure_stage, stage_report
from .config import load_config
from .manifest import ManifestError, RunManifest, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_IO = 4

STAGES = list(STAGE_TABLE) + ["report"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentservo",
        description="state-representation workbench for the 2D hand-eye toy task")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage)
        p.add_argument("--config", type=Path, help="experiment INI file")
        p.add_argument("--force", action="store_true",
                       help="re-run even when the manifest says up to date")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--out", type=Path, default=None,
                       help="override the config's output directory "
                            "(for report: the run directory)")
        if stage == "train":
            p.add_argument("--method", choices=["ae", "vae", "bvae", "sae"],
                           default=None, help="train a single method")
            p.add_argument("--latent-dim", default=None,
                           help="comma-separated list for a dimension sweep")
    return parser


def _report_only(out_dir: Path) -> int:
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest under {out_dir}", file=sys.stderr)
        return EXIT_IO
    try:
        digest = json.loads(manifest_path.read_text()).get("config_digest", "")
        manifest = RunManifest.open(out_dir, config_digest=digest)
    except (ManifestError, json.JSONDecodeError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_IO
    stage_report(out_dir, manifest)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.config is None:
        if args.stage == "report" and args.out is not None:
            try:
                return _report_only(Path(args.out))
            except OSError as exc:
                print(f"I/O error: {exc}", file=sys.stderr)
                return EXIT_IO
        print("--config is required", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=None if args.out is None else str(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.open(cfg.out_dir, cfg.digest())
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.stage == "report":
            run_stage(manifest, "report", True,
                      lambda: stage_report(cfg.out_dir, manifest))
        elif args.stage == "train":
            dims = None
            if getattr(args, "latent_dim", None):
                dims = [int(d) for d in str(args.latent_dim).split(",") if d]
            ensure_stage(cfg, manifest, "train", force=args.force,
                         only_method=getattr(args, "method", None),
                         latent_dims=dims)
        else:
            ensure_stage(cfg, manifest, args.stage, force=args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageFailure, WeightFormatError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
