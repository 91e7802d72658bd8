"""Command-line entry point.

    latentservo <stage> --config experiment.ini [--force] [--seed N] [--out DIR]
    latentservo train --config experiment.ini [--method NAME] [--latent-dim D,...]
    latentservo report [--config experiment.ini | --out RUN_DIR]

Exit codes: 0 success, 2 configuration error, 3 stage failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..plain import plain
from ..representations import ConfigError, WeightFormatError
from .commands import STAGE_TABLE, StageFailure, ensure_stage, stage_report
from .config import load_config
from .manifest import ManifestError, RunManifest, StageOutputs, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_IO = 4

STAGES = list(STAGE_TABLE) + ["report"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentservo",
        description="state-representation workbench for the 2D hand-eye toy task")
    parser.add_argument("stage", choices=STAGES, help="the stage to bring up to date")
    parser.add_argument("--config", type=Path, help="experiment INI file")
    parser.add_argument("--force", action="store_true",
                        help="re-run even when the manifest says up to date")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's global seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="override the config's output directory "
                             "(for report: the run directory)")
    parser.add_argument("--method", choices=["ae", "vae", "bvae", "sae"],
                        default=None, help="train only: train a single method")
    parser.add_argument("--latent-dim", default=None,
                        help="train only: comma-separated list for a dimension "
                             "sweep (ae, vae and bvae)")
    return parser


def _train_args(args, cfg) -> dict:
    """``train``'s --method and --latent-dim, checked before any stage runs."""
    if args.method is not None and args.method not in cfg.methods:
        raise ConfigError(f"--method {args.method} is not in [methods] train")
    try:
        dims = None if args.latent_dim is None else [
            int(d) for d in args.latent_dim.split(",")]
    except ValueError:
        raise ConfigError("--latent-dim expects comma-separated integers, "
                          f"got {args.latent_dim!r}") from None
    if dims is not None and args.method == "sae":
        raise ConfigError("--latent-dim applies to ae, vae and bvae; an SAE's "
                          "latent width is 2 * channels")
    return {"only_method": args.method, "latent_dims": dims}


def _report_only(out_dir: Path) -> int:
    """The report of a run directory alone: each stage's recorded status."""
    if not (out_dir / "manifest.json").exists():
        print(f"no manifest under {out_dir}", file=sys.stderr)
        return EXIT_IO
    try:
        manifest = RunManifest.open(out_dir, config_digest=None)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_IO
    stage_report(StageOutputs(out_dir), manifest)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.stage != "train" and (args.method, args.latent_dim) != (None, None):
        parser.error("--method and --latent-dim apply to train only")

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

    tree = plain(cfg)
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.open(cfg.out_dir, cfg.digest(tree))
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.stage == "report":
            run_stage(manifest, "report", None, True,
                      lambda out: stage_report(out, manifest, tree))
        elif args.stage == "train":
            ensure_stage(cfg, tree, manifest, "train", force=args.force,
                         **_train_args(args, cfg))
        else:
            ensure_stage(cfg, tree, manifest, args.stage, force=args.force)
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
