"""Run manifest: per-stage status, outputs, and content-hash caching.

The manifest is rewritten atomically (temp file + rename) at every stage
boundary. A stage whose recorded digest matches the current config digest
and whose recorded outputs all exist is skipped unless forced.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

from .. import __version__


class ManifestError(RuntimeError):
    """Unreadable or structurally invalid manifest."""


@dataclass
class RunManifest:
    path: Path
    config_digest: str
    tool_version: str
    stages: dict

    @staticmethod
    def open(out_dir, config_digest: str) -> "RunManifest":
        path = Path(out_dir) / "manifest.json"
        if path.exists():
            try:
                data = json.loads(path.read_text())
                stages = data["stages"]
                if not isinstance(stages, dict):
                    raise TypeError("stages must be a mapping")
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ManifestError(f"{path}: corrupted manifest ({exc})") from exc
            return RunManifest(path=path, config_digest=config_digest,
                               tool_version=__version__, stages=stages)
        return RunManifest(path=path, config_digest=config_digest,
                           tool_version=__version__, stages={})

    def is_current(self, stage: str) -> bool:
        """Done under this config digest, and every recorded output still exists."""
        entry = self.stages.get(stage)
        return bool(entry and entry.get("status") == "done"
                    and entry.get("digest") == self.config_digest
                    and all(Path(o).exists() for o in entry.get("outputs", [])))

    def run_number(self, stage: str) -> int:
        """Order in which ``stage`` last finished, above every earlier one; 0 if never."""
        return (self.stages.get(stage) or {}).get("run", 0)

    def outputs(self, stage: str) -> List[str]:
        entry = self.stages.get(stage) or {}
        return list(entry.get("outputs", []))

    def record(self, stage: str, outputs: List[str], wall_clock_s: float) -> None:
        self.stages[stage] = {
            "status": "done",
            "digest": self.config_digest,
            "outputs": sorted(str(o) for o in outputs),
            "run": 1 + max(map(self.run_number, self.stages), default=0),
            "wall_clock_s": round(wall_clock_s, 3),
        }
        self._write()

    def record_failure(self, stage: str, error: str) -> None:
        self.stages[stage] = {
            "status": "failed",
            "digest": self.config_digest,
            "error": error,
            "outputs": [],
        }
        self._write()

    def _write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({
            "tool_version": self.tool_version,
            "config_digest": self.config_digest,
            "stages": self.stages,
        }, indent=1, sort_keys=True)
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(payload)
        os.replace(tmp, self.path)


def run_stage(manifest: RunManifest, stage: str, force: bool,
              action: Callable[[], List[str]],
              log: Callable[[str], None] = print) -> List[str]:
    """Execute one cached stage; returns its output paths."""
    if not force and manifest.is_current(stage):
        log(f"[{stage}] up to date, skipping")
        return manifest.outputs(stage)
    log(f"[{stage}] running")
    t0 = time.perf_counter()
    try:
        outputs = action()
    except Exception as exc:
        manifest.record_failure(stage, f"{type(exc).__name__}: {exc}")
        raise
    manifest.record(stage, outputs, time.perf_counter() - t0)
    log(f"[{stage}] done ({time.perf_counter() - t0:.1f}s)")
    return outputs
