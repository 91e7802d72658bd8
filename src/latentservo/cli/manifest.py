"""Run manifest: per-stage status, outputs, and content-addressed caching.

The manifest is rewritten atomically (temp file + rename) at every stage
boundary. Each stage attempt, done or failed, records a ``key`` (a sha256
over what the stage read: its config paths and its inputs' recorded key
and output digests) and the content digest of every file it wrote, by path
relative to the run directory. A stage is current iff it is done, its
recorded key equals the key it would run under now and every recorded
output still has its recorded digest; otherwise it runs again.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional

from .. import __version__


class ManifestError(RuntimeError):
    """Unreadable or structurally invalid manifest."""


def _files(root: str, prefix: str):
    """(relative POSIX path, path) of every file under ``root``, as
    ``Path.rglob`` finds them: a symlinked directory is not entered."""
    with os.scandir(root) as entries:
        for entry in entries:
            if entry.is_dir():
                if not entry.is_symlink():
                    yield from _files(entry.path, prefix + entry.name + "/")
            elif entry.is_file():
                yield prefix + entry.name, entry.path


def _file_digest(path) -> bytes:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).digest()


def content_digest(path) -> Optional[str]:
    """sha256 of a file's bytes, or of a directory's files in sorted
    relative-path order (each path, then its file's digest); None if absent."""
    if os.path.isfile(path):
        return _file_digest(path).hex()
    if not os.path.isdir(path):
        return None
    h = hashlib.sha256()
    for rel, file in sorted(_files(os.fspath(path), "")):
        h.update(rel.encode() + b"\0" + _file_digest(file))
    return h.hexdigest()


def _beneath(rel: str) -> bool:
    """Whether the relative POSIX path ``rel`` names something beneath the
    directory it is joined to: not absolute, no ``..``, not the directory."""
    parts = rel.split("/")
    return not rel.startswith("/") and ".." not in parts \
        and any(part not in ("", ".") for part in parts)


@dataclass
class RunManifest:
    path: Path
    config_digest: str  # provenance only; stage keys decide caching
    tool_version: str
    stages: dict
    # Stages whose outputs were hashed (or written) by this process: each
    # output is hashed at most once per CLI call.
    checked: set = field(default_factory=set, repr=False, compare=False)

    @staticmethod
    def open(out_dir, config_digest: Optional[str]) -> "RunManifest":
        """The run's manifest, or an empty one; ``config_digest=None`` keeps
        the recorded digest."""
        path = Path(out_dir) / "manifest.json"
        data = {"stages": {}}
        if path.exists():
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, dict) or not isinstance(data["stages"], dict):
                    raise TypeError("the manifest and its stages must be objects")
                if not all(isinstance(e, dict) for e in data["stages"].values()):
                    raise TypeError("every stage entry must be an object")
            except (ValueError, KeyError, TypeError) as exc:  # undecodable bytes too
                raise ManifestError(f"{path}: corrupted manifest ({exc})") from exc
            # A stage that re-runs removes its recorded outputs first, so each
            # must name something inside the run directory.
            for stage, entry in data["stages"].items():
                outputs = entry.get("outputs")
                for rel in outputs if isinstance(outputs, dict) else ():
                    if not _beneath(rel):
                        raise ManifestError(f"{path}: stage {stage} records output "
                                            f"{rel!r} outside the run directory")
        if config_digest is None:
            config_digest = data.get("config_digest", "")
        return RunManifest(path=path, config_digest=config_digest,
                           tool_version=__version__, stages=data["stages"])

    @property
    def run_dir(self) -> Path:
        return self.path.parent

    def key(self, reads: dict, inputs: Iterable[str]) -> str:
        """sha256 over the config values a stage reads and each input
        stage's recorded key and output digests."""
        recorded = {}
        for stage in inputs:
            entry = self.stages.get(stage) or {}
            recorded[stage] = {"key": entry.get("key"), "outputs": entry.get("outputs")}
        # "args" is always empty; it stays so that existing runs keep their keys.
        blob = json.dumps({"reads": reads, "args": {}, "inputs": recorded},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def is_current(self, stage: str, key: str) -> bool:
        """Done under ``key``, and every recorded output still has its digest."""
        entry = self.stages.get(stage) or {}
        outputs = entry.get("outputs")
        if entry.get("status") != "done" or entry.get("key") != key \
                or not isinstance(outputs, dict):
            return False
        if stage not in self.checked:
            run_dir = str(self.run_dir)
            if any(content_digest(os.path.join(run_dir, rel)) != digest
                   for rel, digest in outputs.items()):
                return False
            self.checked.add(stage)
        return True

    def outputs(self, stage: str) -> List[str]:
        """The stage's recorded output paths, under the run directory."""
        outputs = (self.stages.get(stage) or {}).get("outputs")
        if not isinstance(outputs, dict):
            return []
        run_dir = str(self.run_dir)
        return [os.path.join(run_dir, rel) for rel in outputs]

    def record(self, stage: str, key: Optional[str], outputs: List[str],
               wall_clock_s: float, error: Optional[str] = None) -> None:
        """One attempt at ``stage``: done, or failed with ``error``. Either
        way every file it wrote is recorded, so the next attempt removes it."""
        digests = {Path(o).relative_to(self.run_dir).as_posix(): content_digest(o)
                   for o in outputs}
        entry = self.stages[stage] = {
            "status": "done",
            "key": key,
            "outputs": dict(sorted(digests.items())),
            "wall_clock_s": round(wall_clock_s, 3),
        }
        if error is None:
            self.checked.add(stage)
        else:
            entry.update(status="failed", error=error)
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


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class StageOutputs:
    """The files one stage run writes: each is recorded as it is made."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.paths: List[str] = []

    def path(self, rel: str) -> Path:
        """``rel`` under the run directory, with its parent made, recorded."""
        path = self.run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(str(path))
        return path

    def write(self, rel: str, text: str) -> None:
        self.path(rel).write_text(text)


def run_stage(manifest: RunManifest, stage: str, key: Optional[str], force: bool,
              action: Callable[[StageOutputs], None],
              log: Callable[[str], None] = print) -> None:
    """Execute one cached stage under ``key``.

    ``action`` writes every output through the ``StageOutputs`` it is
    given, so the manifest records exactly what the stage wrote, whether
    it finishes or fails. A stage that runs first removes the outputs its
    last attempt recorded, so a file it no longer writes cannot outlive the
    change that dropped it.
    """
    if not force and manifest.is_current(stage, key):
        log(f"[{stage}] up to date, skipping")
        return
    log(f"[{stage}] running")
    t0 = time.perf_counter()
    for path in manifest.outputs(stage):
        _remove(Path(path))
    out = StageOutputs(manifest.run_dir)
    try:
        action(out)
    except Exception as exc:
        manifest.record(stage, key, out.paths, time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}")
        raise
    manifest.record(stage, key, out.paths, time.perf_counter() - t0)
    log(f"[{stage}] done ({time.perf_counter() - t0:.1f}s)")
