"""Command-line entry point.

    latentservo <stage> --config experiment.ini [--force] [--seed N] [--out DIR]
    latentservo report [--config experiment.ini | --out RUN_DIR]

Exit codes: 0 success, 2 configuration error, 3 stage failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..plain import plain
from ..representations import ConfigError
from .commands import STAGE_TABLE, ensure_stage, stage_report
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
    parser.add_argument("stage", choices=STAGES, help="the stage to bring up to date")
    parser.add_argument("--config", type=Path, help="experiment INI file")
    parser.add_argument("--force", action="store_true",
                        help="re-run even when the manifest says up to date")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's global seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="override the config's output directory "
                             "(for report: the run directory)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config, seed_override=args.seed,
                              out_override=None if args.out is None else str(args.out))
            tree = plain(cfg)
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
            manifest = RunManifest.open(cfg.out_dir, cfg.digest(tree))
        elif args.stage == "report" and args.out is not None:
            # the run directory alone: each stage shows the status it recorded
            if not (args.out / "manifest.json").exists():
                print(f"no manifest under {args.out}", file=sys.stderr)
                return EXIT_IO
            tree = None
            manifest = RunManifest.open(args.out, config_digest=None)
        else:
            print("--config is required", file=sys.stderr)
            return EXIT_CONFIG
        if args.stage == "report":
            run_stage(manifest, "report", None, True,
                      lambda out: stage_report(out, manifest, tree))
        else:
            ensure_stage(cfg, tree, manifest, args.stage, force=args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        # a stage failed on its data: StageFailure, a diverged fit, a bad
        # weights file; a TypeError or KeyError is a bug and keeps its traceback
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
