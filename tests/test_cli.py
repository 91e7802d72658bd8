"""Config validation, manifest caching, subcommand wiring, exit codes."""

import configparser
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from latentservo.cli import config
from latentservo.cli import manifest as cli_manifest
from latentservo.cli.commands import STAGE_TABLE, _lookup, stage_key
from latentservo.cli.config import _SCHEMA, _parse_bool, load_config
from latentservo.cli.main import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_STAGE, main
from latentservo.cli.manifest import (ManifestError, RunManifest, StageOutputs,
                                      content_digest, run_stage)
from latentservo.plain import plain
from latentservo.representations import ConfigError

TINY = Path(__file__).parent / "data" / "tiny.ini"
SRC = Path(__file__).resolve().parents[1] / "src"

# The stages of a full tiny run, in the order the determinism test runs them.
PIPELINE = ("evaluate", "taskmap", "alpha-sweep", "fieldmap", "embodiment", "report")


def write_config(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


def tiny_with(tmp_path, *edits):
    """tiny.ini with each ``(old, new)`` line edit applied, written under ``tmp_path``."""
    text = TINY.read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return write_config(tmp_path, text)


def run_stages(ini, out, *stages):
    for stage in stages:
        assert main([stage, "--config", str(ini), "--out", str(out)]) == EXIT_OK, stage


def error_line(capsys):
    """The one line a failed CLI call wrote to stderr."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err, err
    return err


def ran(log):
    """The stages a CLI log says ran, in order."""
    return [line[1:line.index("]")] for line in log.splitlines()
            if line.endswith("] running")]


def report_statuses(text):
    """The status column of a report's stage table, by stage."""
    section = text.split("## Stages")[1].split("##")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()[4:] if line]
    return {row[0]: row[1] for row in rows}


# A report section per stage whose results it summarizes.
SUMMARY_SECTIONS = ("## Time-varying factors", "## Field-map geometry", "## Alpha sweep",
                    "## Embodiment transfer", "## Success rates")

# A manifest.json of the wrong shape, by what is wrong with it.
BAD_MANIFESTS = {"not-json": b"{not json", "not-an-object": b"[]",
                 "stages-not-an-object": b'{"stages": []}',
                 "entry-not-an-object": b'{"stages": {"train": "x"}}',
                 "not-utf-8": b'{"stages": {"tr\xe9in": {}}}'}


def unrecorded(run_dir):
    """Every file of a run but its manifest.json that no stage records as
    an output."""
    recorded = {rel for entry in json.loads((run_dir / "manifest.json").read_text())[
        "stages"].values() for rel in entry["outputs"]}
    files = [p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*")
             if p.is_file() and p != run_dir / "manifest.json"]
    return [f for f in files if f not in recorded]


def hashed_paths(monkeypatch):
    """The paths the manifest hashes from now on, in order: its module
    binding of ``content_digest`` is counted."""
    calls = []

    def counting(path, digest=cli_manifest.content_digest):
        calls.append(str(path))
        return digest(path)

    monkeypatch.setattr(cli_manifest, "content_digest", counting)
    return calls


def settle(path):
    """Wait until a file made now is stamped after ``path``'s ctime, so a
    record made next signs ``path`` (a stamp in the record's own tick gets
    no signature)."""
    ctime = os.stat(path).st_ctime_ns
    probe = Path(path).with_name(".settle")
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        probe.write_bytes(b"")
        stamp = os.stat(probe).st_ctime_ns
        probe.unlink()
        if stamp > ctime:
            return
        time.sleep(0.001)


def signatures(run_dir, stage):
    """The stat signatures ``stage`` recorded, by output."""
    return json.loads((run_dir / "manifest.json").read_text())["stages"][stage]["stat"]


def artifact_bytes(run_dir):
    """Every file of a run but its manifest.json, by relative path."""
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p != run_dir / "manifest.json"}


MINIMAL = """\
[meta]
schema_version = 1
seed = 5
out_dir = {out}

[methods]
train = ae

[method.ae]
latent_dim = 12
epochs = 2
"""


# MINIMAL with every other key written out at its default value.
EVERY_KEY = """\
[meta]
schema_version = 1
seed = 5
out_dir = {out}

[task]
dof = 2
image_size = 32
sprite_radius = 3.0
target = 0.7, 0.7
a_max = 0.05

[demos]
count = 3
pattern = straight
steps = 16
starts = auto
executor = true
arc_bulge = 0.25

[methods]
train = ae

[method.ae]
latent_dim = 12
epochs = 2
batch_size = 16
learning_rate = 2e-3
hidden = 256, 64

[method.vae]
latent_dim = 50
epochs = 600
batch_size = 16
learning_rate = 2e-3
hidden = 256, 64

[method.bvae]
latent_dim = 50
alpha = 0.12
epochs = 600
batch_size = 16
learning_rate = 2e-3
hidden = 256, 64

[method.sae]
channels = 8
conv1_channels = 8
temperature = 4.0
decoder_hidden = 64
epochs = 600
batch_size = 16
learning_rate = 2e-3

[analysis]
tau = 0.2
grid_n = 64
alpha_sweep = 0.1, 1, 10
alpha_sweep_epochs = 800
collision_fraction = 0.04
fieldmap_methods =

[control]
methods =
trials = 10
max_steps = 80
goal_workspace_tol = 0.02
include_oracle = true

[uvs]
eps_explore = 0.05
gain = 0.5
damping = 1e-3

[reinforce]
gamma = 0.99
learning_rate = 1e-4
episodes = 240
horizon = 80
batch_episodes = 8
r_goal = 10.0
k_gain = 0.5
init_log_std = -1.5
policy_hidden = 16
"""

# A valid new value for the keys that the rule in _edit_one_key cannot make.
KEY_EDITS = {
    ("meta", "schema_version"): "2",
    ("task", "dof"): "1",
    ("task", "image_size"): "34",  # the SAE refuses an odd size
    ("task", "target"): "0.3, 0.6",
    ("task", "a_max"): "0.1",
    ("demos", "pattern"): "arc",
    ("demos", "starts"): "0.1, 0.1; 0.85, 0.2; 0.2, 0.8",
    ("methods", "train"): "vae, bvae, sae",
    ("analysis", "fieldmap_methods"): "sae",
    ("control", "methods"): "sae",
}


def _edit_one_key(text, section, key):
    """``text`` with only ``[section] key`` set to another valid value."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    raw, kind = parser[section][key], _SCHEMA[section][key]
    if (section, key) in KEY_EDITS:
        parser[section][key] = KEY_EDITS[section, key]
    elif kind in ("int", "ints"):
        parser[section][key] = ", ".join(str(int(x) + 1) for x in raw.split(","))
    elif kind in ("float", "floats"):
        parser[section][key] = ", ".join(repr(float(x) / 2) for x in raw.split(","))
    else:
        assert kind == "bool", f"no edit for [{section}] {key}"
        parser[section][key] = "false" if _parse_bool(raw) else "true"
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


# Every key whose value enters the computation: all but [meta] out_dir.
COMPUTED_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys
                 if (section, key) != ("meta", "out_dir")]


class TestConfig:
    def test_tiny_config_loads(self):
        cfg = load_config(TINY)
        assert cfg.seed == 3
        assert set(cfg.methods) == {"bvae", "sae"}
        assert cfg.methods["sae"].spec.temperature == 4.0
        assert cfg.analysis.grid_n == 12
        assert cfg.demos.starts == [(0.1, 0.1), (0.85, 0.2)]

    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL.format(out=tmp_path / "run")))
        assert cfg.task.image_size == 32
        assert cfg.uvs.gain == 0.5
        assert cfg.reinforce.gamma == 0.99

    def test_unknown_section_rejected(self, tmp_path):
        bad = MINIMAL.format(out=tmp_path) + "\n[mystery]\nx = 1\n"
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL.format(out=tmp_path) + "\n[task]\nwarp_speed = 9\n"
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, bad))

    def test_schema_version_checked(self, tmp_path):
        bad = MINIMAL.format(out=tmp_path).replace("schema_version = 1",
                                                   "schema_version = 99")
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, bad))

    def test_control_method_must_be_trained(self, tmp_path):
        bad = MINIMAL.format(out=tmp_path) + "\n[control]\nmethods = sae\n"
        with pytest.raises(ConfigError, match="untrained method"):
            load_config(write_config(tmp_path, bad))

    def test_starts_count_mismatch(self, tmp_path):
        bad = (MINIMAL.format(out=tmp_path)
               + "\n[demos]\ncount = 3\nstarts = 0.1, 0.1; 0.2, 0.2\n")
        with pytest.raises(ConfigError, match="starts"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("section, line, message", [
        ("task", "dof = 3", "dof must be 1 or 2"),
        ("uvs", "gain = -1", "must be positive"),
        ("reinforce", "gamma = 2", "gamma must be in"),
        ("method.vae", "hidden = 64, x", r"\[method.vae\] hidden"),
        ("analysis", "alpha_sweep = 0.1, x", r"\[analysis\] alpha_sweep"),
        ("demos", "steps = 0", "demos.steps must be >= 1"),
        ("demos", "pattern = arc\narc_bulge = 0", "arc_bulge"),
        ("control", "max_steps = 0", "control.max_steps must be >= 1"),
        ("control", "goal_workspace_tol = 0", "goal_workspace_tol must be positive"),
        ("analysis", "collision_fraction = 0", "collision_fraction must be positive"),
        ("reinforce", "policy_hidden = -1", "policy_hidden must be positive"),
        ("analysis", "alpha_sweep_epochs = 0", "alpha_sweep_epochs must be >= 1"),
        ("analysis", "alpha_sweep = 0.1, 0", "alpha_sweep values must be positive"),
        ("task", "dof = 1\n\n[demos]\npattern = arc", "arc needs task.dof = 2"),
        ("uvs", "eps_explore = nan", r"\[uvs\] eps_explore = 'nan': expected a finite"),
        ("reinforce", "learning_rate = nan", r"\[reinforce\] learning_rate"),
        ("task", "a_max = inf", r"\[task\] a_max = 'inf': expected a finite"),
        ("task", "target = 0.5, nan", r"\[task\] target"),
        ("analysis", "alpha_sweep = 0.1, -inf", r"\[analysis\] alpha_sweep"),
        ("method.ae", "hidden = 8", r"hidden must be two positive widths, got \(8,\)"),
        ("method.ae", "hidden = 8, 0", "hidden must be two positive widths"),
        ("methods", "train = bvae\n\n[method.bvae]\nhidden = 8, 4, 2",
         "hidden must be two positive widths"),
        ("methods", "train = sae\n\n[method.sae]\nconv1_channels = 0",
         "conv1_channels and decoder_hidden must be >= 1"),
        ("methods", "train = sae\n\n[method.sae]\ndecoder_hidden = 0",
         "conv1_channels and decoder_hidden must be >= 1"),
        ("meta", "seed = -1", "seed must be >= 0, got -1"),
        ("demos", "count = 2\nstarts = 1.4, 0.1; 0.85, 0.2",
         r"demos.starts point \(1.4, 0.1\) is outside"),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, section, line, message):
        # Each row's lines overlay MINIMAL's, into its sections or new ones.
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(MINIMAL.format(out=tmp_path / "run"))
        parser.read_string(f"[{section}]\n{line}\n")
        text = io.StringIO()
        parser.write(text)
        p = write_config(tmp_path, text.getvalue())
        with pytest.raises(ConfigError, match=message):
            load_config(p)
        assert main(["demo-gen", "--config", str(p)]) == EXIT_CONFIG

    def test_odd_image_size_is_refused_for_the_sae_only(self, tmp_path):
        out = tmp_path / "run"
        odd = MINIMAL.format(out=out) + "\n[task]\nimage_size = 31\n"
        assert load_config(write_config(tmp_path, odd)).task.image_size == 31
        p = write_config(tmp_path, odd.replace("train = ae", "train = ae, sae"))
        with pytest.raises(ConfigError, match="SAE needs an even image size, got 31"):
            load_config(p)
        assert main(["train", "--config", str(p)]) == EXIT_CONFIG
        assert not (out / "manifest.json").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL.format(out=tmp_path / "a")),
                          seed_override=42, out_override=str(tmp_path / "b"))
        assert cfg.seed == 42
        assert cfg.out_dir == tmp_path / "b"
        assert cfg.methods["ae"].spec.seed == 42

    def test_negative_seed_flag_is_a_config_error(self, tmp_path):
        p = write_config(tmp_path, MINIMAL.format(out=tmp_path / "run"))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
            load_config(p, seed_override=-2)
        assert main(["demo-gen", "--config", str(p), "--seed", "-2"]) == EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_digest_stable_and_seed_sensitive(self, tmp_path):
        p = write_config(tmp_path, MINIMAL.format(out=tmp_path / "run"))
        assert load_config(p).digest() == load_config(p).digest()
        assert load_config(p).digest() != load_config(p, seed_override=9).digest()

    def test_shipped_config_digests_unchanged(self):
        assert load_config(TINY).digest() == (
            "586636d48b73901cc9e364f88e0cfd17725998e12418206a64d62733f7726877")
        assert load_config(TestToyConfig.TOY).digest() == (
            "0738aeb0d90dd8b331bf41c9d3167f9139f7c3c0bc8dcba03c5be1a1859ce83c")

    def test_written_out_defaults_equal_minimal(self, tmp_path):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(EVERY_KEY)
        assert {s: set(parser[s]) for s in parser.sections()} == {
            s: set(keys) for s, keys in _SCHEMA.items()}
        out = tmp_path / "run"
        every_key = load_config(write_config(tmp_path, EVERY_KEY.format(out=out)))
        minimal = load_config(write_config(tmp_path, MINIMAL.format(out=out)))
        assert every_key == minimal
        assert every_key.digest() == minimal.digest()

    @pytest.mark.parametrize("section, key", COMPUTED_KEYS)
    def test_every_key_enters_the_digest(self, tmp_path, monkeypatch, section, key):
        # all four methods trained, so every [method.*] key is in use
        base = EVERY_KEY.format(out=tmp_path / "run").replace(
            "train = ae", "train = ae, vae, bvae, sae")
        before = load_config(write_config(tmp_path, base)).digest()
        if key == "schema_version":  # only the current version loads
            monkeypatch.setattr(config, "SCHEMA_VERSION", 2)
        edited = _edit_one_key(base, section, key)
        assert load_config(write_config(tmp_path, edited)).digest() != before

    @pytest.mark.parametrize("section, key", COMPUTED_KEYS)
    def test_every_key_enters_a_stage_key(self, tmp_path, monkeypatch, section, key):
        base = EVERY_KEY.format(out=tmp_path / "run").replace(
            "train = ae", "train = ae, vae, bvae, sae")
        no_run = RunManifest.open(tmp_path / "no-run", "")

        def keys(text):
            tree = plain(load_config(write_config(tmp_path, text)))
            return {stage: stage_key(tree, no_run, stage) for stage in STAGE_TABLE}

        before = keys(base)
        if key == "schema_version":
            monkeypatch.setattr(config, "SCHEMA_VERSION", 2)
        after = keys(_edit_one_key(base, section, key))
        assert [s for s in STAGE_TABLE if after[s] != before[s]]

    def test_every_dependency_comes_first_in_the_table(self):
        order = list(STAGE_TABLE)
        for stage, (_, deps, _) in STAGE_TABLE.items():
            assert all(order.index(dep) < order.index(stage) for dep in deps), stage

    def test_every_stage_read_names_a_config_value(self, tmp_path):
        base = EVERY_KEY.format(out=tmp_path / "run").replace(
            "train = ae", "train = ae, vae, bvae, sae")
        tree = plain(load_config(write_config(tmp_path, base)))
        for stage, (_, _, reads) in STAGE_TABLE.items():
            for path in reads:
                assert _lookup(tree, path) is not None, (stage, path)


class TestManifest:
    def test_content_digest_of_a_missing_path(self, tmp_path):
        assert content_digest(tmp_path / "ghost") is None
        assert content_digest(tmp_path) is None  # a directory is no output

    @pytest.mark.parametrize("rel", ["../victim", "models/../../victim", "..",
                                     "/etc/victim", "//victim", "", ".", "./"])
    def test_an_output_outside_the_run_directory_is_refused(self, tmp_path, rel):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"stages": {"embodiment": {
            "status": "done", "key": "k", "outputs": {rel: "d"}}}}))
        with pytest.raises(ManifestError, match="outside the run directory"):
            RunManifest.open(out, "d")

    def test_a_rerun_removes_nothing_outside_the_run_directory(self, tmp_path, capsys):
        out, victim = tmp_path / "run", tmp_path / "victim"
        victim.mkdir()
        (victim / "keep.txt").write_text("keep")
        ini = write_config(tmp_path, MINIMAL.format(out=out))
        assert main(["demo-gen", "--config", str(ini)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["embodiment"] = {"status": "done", "key": "stale",
                                            "outputs": {"../victim": "d"}}
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["embodiment", "--config", str(ini)]) == EXIT_IO
        assert "outside the run directory" in capsys.readouterr().err
        assert (victim / "keep.txt").read_text() == "keep"

    def test_round_trip_and_caching(self, tmp_path):
        model = tmp_path / "models" / "x.lsrv"
        model.parent.mkdir()
        model.write_bytes(b"weights")
        m = RunManifest.open(tmp_path, "digest-a")
        assert not m.is_current("train", "key-a")
        m.record("train", "key-a", [str(model)], 1.5)
        again = RunManifest.open(tmp_path, "digest-a")
        assert again.is_current("train", "key-a")
        assert again.outputs("train") == [str(model)]
        changed = RunManifest.open(tmp_path, "digest-b")
        assert not changed.is_current("train", "key-b")

    def test_missing_output_is_not_current(self, tmp_path):
        kept, lost = tmp_path / "kept.csv", tmp_path / "lost.lsrv"
        kept.write_text("x")
        lost.write_bytes(b"weights")
        RunManifest.open(tmp_path, "d").record("train", "k", [str(kept), str(lost)], 1.0)
        lost.unlink()
        assert not RunManifest.open(tmp_path, "d").is_current("train", "k")
        lost.write_bytes(b"weights")
        assert RunManifest.open(tmp_path, "d").is_current("train", "k")

    def test_changed_output_is_not_current(self, tmp_path):
        model = tmp_path / "model.lsrv"
        model.write_bytes(b"weights")
        RunManifest.open(tmp_path, "d").record("s", "k", [str(model)], 1.0)
        assert RunManifest.open(tmp_path, "d").is_current("s", "k")
        model.write_bytes(b"weightz")
        assert not RunManifest.open(tmp_path, "d").is_current("s", "k")

    def test_rewrite_with_restored_mtime_is_not_current(self, tmp_path):
        model = tmp_path / "model.lsrv"
        model.write_bytes(b"weights")
        hour_ago = time.time_ns() - 3600 * 10**9
        os.utime(model, ns=(hour_ago, hour_ago))
        settle(model)
        RunManifest.open(tmp_path, "d").record("s", "k", [str(model)], 1.0)
        assert "model.lsrv" in signatures(tmp_path, "s")
        with open(model, "r+b") as f:
            f.write(b"weightz")
        os.utime(model, ns=(hour_ago, hour_ago))
        assert model.stat().st_size == len(b"weights")
        assert not RunManifest.open(tmp_path, "d").is_current("s", "k")

    def test_same_bytes_as_a_new_file_are_current_by_hashing(self, tmp_path, monkeypatch):
        model = tmp_path / "model.lsrv"
        model.write_bytes(b"weights")
        settle(model)
        RunManifest.open(tmp_path, "d").record("s", "k", [str(model)], 1.0)
        assert "model.lsrv" in signatures(tmp_path, "s")
        hashed = hashed_paths(monkeypatch)
        assert RunManifest.open(tmp_path, "d").is_current("s", "k")
        assert hashed == []  # its stat still equals its signature
        (tmp_path / "model.new").write_bytes(b"weights")
        os.replace(tmp_path / "model.new", model)
        assert RunManifest.open(tmp_path, "d").is_current("s", "k")
        assert hashed == [str(model)]

    @pytest.mark.parametrize("edit", [
        lambda stat: None,
        lambda stat: list(stat.values()),
        lambda stat: {rel: [str(v) for v in sig] for rel, sig in stat.items()},
        lambda stat: {rel: sig[:3] for rel, sig in stat.items()},
    ], ids=["absent", "list", "strings", "three-items"])
    def test_a_missing_or_malformed_signature_is_checked_by_hashing(self, tmp_path, monkeypatch,
                                                                    edit):
        demo = tmp_path / "demos" / "teacher" / "demo_000.pgm"
        demo.parent.mkdir(parents=True)
        demo.write_bytes(b"P5\n1 1\n255\n\0")
        settle(demo)
        manifest, tree = RunManifest.open(tmp_path, "d"), plain(load_config(TINY))
        key = stage_key(tree, manifest, "demo-gen")
        manifest.record("demo-gen", key, [str(demo)], 1.0)
        train_key = stage_key(tree, manifest, "train")
        data = json.loads((tmp_path / "manifest.json").read_text())
        entry = data["stages"]["demo-gen"]
        assert list(entry["stat"]) == ["demos/teacher/demo_000.pgm"]
        stat = edit(entry.pop("stat"))
        if stat is not None:  # None: the entry has no "stat", as the parent format
            entry["stat"] = stat
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        hashed = hashed_paths(monkeypatch)
        again = RunManifest.open(tmp_path, "d")
        assert again.is_current("demo-gen", key)
        assert hashed == [str(demo)]
        # A signature is no part of any stage key.
        assert stage_key(tree, again, "train") == train_key

    def test_an_output_stamped_after_the_record_is_not_signed(self, tmp_path, monkeypatch):
        model = tmp_path / "model.lsrv"
        model.write_bytes(b"weights")
        hour_ahead = time.time_ns() + 3600 * 10**9
        os.utime(model, ns=(hour_ahead, hour_ahead))
        RunManifest.open(tmp_path, "d").record("s", "k", [str(model)], 1.0)
        assert signatures(tmp_path, "s") == {}
        hashed = hashed_paths(monkeypatch)
        assert RunManifest.open(tmp_path, "d").is_current("s", "k")
        assert hashed == [str(model)]

    @pytest.mark.parametrize("size", [0, 100, (1 << 20) + 1, 3 << 20])
    def test_content_digest_reads_in_bounded_chunks(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(random.Random(size).randbytes(size))
        tracemalloc.start()
        try:
            digest = content_digest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < (1 << 20) + (1 << 16)  # one 1 MiB chunk, never the whole file

    def test_key_covers_reads_and_inputs(self, tmp_path):
        m = RunManifest.open(tmp_path, "d")
        key = m.key({"seed": 1}, ["up"])
        assert key == RunManifest.open(tmp_path, "other").key({"seed": 1}, ["up"])
        assert m.key({"seed": 2}, ["up"]) != key
        out = tmp_path / "up.csv"
        out.write_text("a")
        m.record("up", "k", [str(out)], 1.0)
        after_up = m.key({"seed": 1}, ["up"])
        assert after_up != key
        out.write_text("b")
        m.record("up", "k", [str(out)], 1.0)
        assert m.key({"seed": 1}, ["up"]) != after_up

    def test_key_format_unchanged(self, tmp_path):
        # A stage key that changes re-runs that stage in every existing run directory.
        manifest = RunManifest.open(tmp_path, "d")
        key = stage_key(plain(load_config(TINY)), manifest, "demo-gen")
        assert key == "122d3092166d1b39ea93447ea50b834e51e78dc3c6c38fca3af1afeed8e3de3e"

    def test_old_format_entry_is_not_current(self, tmp_path, capsys):
        out = tmp_path / "run"
        model = out / "models" / "sae.lsrv"
        model.parent.mkdir(parents=True)
        model.write_bytes(b"weights")
        (out / "manifest.json").write_text(json.dumps({"config_digest": "d", "stages": {
            stage: {"status": "done", "digest": "d", "outputs": [str(model)], "run": 1}
            for stage in ("demo-gen", "train")}}))
        assert not RunManifest.open(out, "d").is_current("train", "k")
        assert RunManifest.open(out, "d").outputs("train") == []
        assert main(["demo-gen", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        assert ran(capsys.readouterr().out) == ["demo-gen"]

    @pytest.mark.parametrize("text", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
    def test_corrupted_manifest_raises(self, tmp_path, text):
        (tmp_path / "manifest.json").write_bytes(text)
        with pytest.raises(ManifestError, match="corrupted"):
            RunManifest.open(tmp_path, "x")

    def test_failure_recorded(self, tmp_path):
        m = RunManifest.open(tmp_path, "d")
        m.record("train", None, [], 0.0, error="boom")
        assert not m.is_current("train", None)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["stages"]["train"]["status"] == "failed"

    def test_failed_attempt_records_what_it_wrote(self, tmp_path):
        m = RunManifest.open(tmp_path, "d")

        def fail(out):
            out.write("control/servo_sae_trial00.csv", "step\n")
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_stage(m, "servo", "k", False, fail, log=lambda line: None)
        entry = json.loads((tmp_path / "manifest.json").read_text())["stages"]["servo"]
        assert (entry["status"], entry["key"], entry["error"]) == \
            ("failed", "k", "ValueError: boom")
        assert list(entry["outputs"]) == ["control/servo_sae_trial00.csv"]
        assert not RunManifest.open(tmp_path, "d").is_current("servo", "k")
        run_stage(m, "servo", "k", False,
                  lambda out: out.write("control/servo_sae_stats.json", "{}"),
                  log=lambda line: None)
        assert not (tmp_path / "control" / "servo_sae_trial00.csv").exists()
        assert unrecorded(tmp_path) == []
        assert RunManifest.open(tmp_path, "d").is_current("servo", "k")

        # An interrupted attempt (Ctrl-C) is recorded the same way.
        def interrupted(out):
            out.write("control/servo_sae_trial01.csv", "step\n")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_stage(m, "servo", "k2", False, interrupted, log=lambda line: None)
        entry = json.loads((tmp_path / "manifest.json").read_text())["stages"]["servo"]
        assert (entry["status"], entry["key"], entry["error"]) == \
            ("failed", "k2", "KeyboardInterrupt: ")
        assert list(entry["outputs"]) == ["control/servo_sae_trial01.csv"]
        assert not (tmp_path / "control" / "servo_sae_stats.json").exists()
        assert unrecorded(tmp_path) == []


class TestStageOutputs:
    def test_csv_writes_header_then_rows(self, tmp_path):
        out = StageOutputs(tmp_path)
        out.csv("analysis/t.csv", ("t", "dim_0", "dim_1"),
                ((t, f"{v:.6g}", v > 0) for t, v in enumerate([0.5, -1e-7])))
        assert (tmp_path / "analysis" / "t.csv").read_text() == \
            "t,dim_0,dim_1\n0,0.5,True\n1,-1e-07,False\n"
        assert out.paths == [str(tmp_path / "analysis" / "t.csv")]

    def test_csv_without_rows_is_its_header(self, tmp_path):
        out = StageOutputs(tmp_path)
        out.csv("trial.csv", ("step", "z0", "a0", "reward"), [])
        assert (tmp_path / "trial.csv").read_text() == "step,z0,a0,reward\n"

    def test_json_is_indented_and_key_sorted(self, tmp_path):
        out = StageOutputs(tmp_path)
        out.json("control/policy.json", {"k": 2, "dof": [1, 2], "params": {"w": 1, "b": None}})
        assert (tmp_path / "control" / "policy.json").read_text() == (
            '{\n "dof": [\n  1,\n  2\n ],\n "k": 2,\n'
            ' "params": {\n  "b": null,\n  "w": 1\n }\n}')
        assert out.paths == [str(tmp_path / "control" / "policy.json")]


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold tiny run of every stage; tests change copies of it, never it."""
    out = tmp_path_factory.mktemp("cold") / "run"
    run_stages(TINY, out, *PIPELINE)
    return out


@pytest.fixture
def cold_copy(cold_run, tmp_path):
    """A copy of the cold run: the manifest holds relative paths, so it is a cache."""
    out = tmp_path / "copy"
    shutil.copytree(cold_run, out)
    return out


@pytest.fixture
def fresh_run(tmp_path):
    """A cold tiny run made in place, not copied, so each output still has
    the stat its record signed."""
    out = tmp_path / "fresh"
    run_stages(TINY, out, *PIPELINE)
    return out


@pytest.fixture(scope="module")
def pipeline_run(cold_run, tmp_path_factory):
    """One tiny end-to-end run shared by the CLI assertions."""
    out = tmp_path_factory.mktemp("run") / "run"
    shutil.copytree(cold_run, out)
    return out


class TestPipeline:
    def test_artifacts_exist(self, pipeline_run):
        out = pipeline_run
        assert (out / "manifest.json").exists()
        assert (out / "control" / "evaluate.json").exists()
        assert (out / "analysis" / "alpha_sweep.csv").exists()
        assert (out / "analysis" / "embodiment.json").exists()
        assert (out / "report.md").exists()
        assert len(list((out / "demos" / "teacher").glob("demo_*"))) == 2
        assert len(list((out / "demos" / "executor").glob("demo_*"))) == 2

    def test_evaluate_table_shape(self, pipeline_run):
        table = json.loads((pipeline_run / "control" / "evaluate.json").read_text())
        rates = table["success_rate"]
        assert "sae" in rates and "oracle" in rates
        for row in rates.values():
            assert set(row) == {"uvs", "reinforce"}
            for v in row.values():
                assert 0.0 <= v <= 1.0

    def test_oracle_sanity_is_perfect(self, pipeline_run):
        rates = json.loads((pipeline_run / "control" / "evaluate.json").read_text())
        assert rates["success_rate"]["oracle"]["uvs"] == 1.0
        assert rates["success_rate"]["oracle"]["reinforce"] == 1.0

    def test_alpha_sweep_sorted_descending(self, pipeline_run):
        rows = json.loads((pipeline_run / "analysis" / "alpha_sweep.json").read_text())
        scores = [r["score"] for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_rerun_is_noop(self, pipeline_run, capsys):
        assert main(["evaluate", "--config", str(TINY),
                     "--out", str(pipeline_run)]) == EXIT_OK
        outp = capsys.readouterr().out
        assert "skipping" in outp and "running" not in outp

    def test_warm_call_checks_each_upstream_stage_once(self, pipeline_run, capsys):
        capsys.readouterr()
        assert main(["evaluate", "--config", str(TINY),
                     "--out", str(pipeline_run)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            f"[{stage}] up to date, skipping" for stage in
            ("demo-gen", "train", "factors", "servo", "reinforce", "evaluate")]

    def test_warm_call_reads_only_unsigned_outputs(self, fresh_run, monkeypatch, capsys):
        stages = json.loads((fresh_run / "manifest.json").read_text())["stages"]
        checked = ("demo-gen", "train", "factors", "servo", "reinforce", "evaluate")
        unsigned = [str(fresh_run / rel) for stage in checked
                    for rel in stages[stage]["outputs"] if rel not in stages[stage]["stat"]]
        assert "models/bvae.lsrv" in stages["train"]["stat"]
        hashed = hashed_paths(monkeypatch)
        capsys.readouterr()
        run_stages(TINY, fresh_run, "evaluate")
        assert ran(capsys.readouterr().out) == []
        assert hashed == unsigned  # each at most once

    @pytest.mark.parametrize("form", ["copied", "unsigned"])
    def test_a_run_without_valid_signatures_is_hashed_and_reruns_nothing(
            self, fresh_run, tmp_path, monkeypatch, capsys, form):
        # A copy has new inodes and ctimes; a manifest written before stat
        # signatures has none.
        if form == "copied":
            run = tmp_path / "copy"
            shutil.copytree(fresh_run, run)
        else:
            run = fresh_run
            data = json.loads((run / "manifest.json").read_text())
            for entry in data["stages"].values():
                del entry["stat"]
            (run / "manifest.json").write_text(json.dumps(data))
        stages = json.loads((run / "manifest.json").read_text())["stages"]
        hashed = hashed_paths(monkeypatch)
        capsys.readouterr()
        run_stages(TINY, run, "evaluate")
        assert ran(capsys.readouterr().out) == []
        assert hashed == [str(run / rel) for stage in ("demo-gen", "train", "factors", "servo",
                                                      "reinforce", "evaluate")
                          for rel in stages[stage]["outputs"]]

    def test_report_marks_an_edit_keeping_size_and_mtime_stale(self, fresh_run):
        model = fresh_run / "models" / "sae.lsrv"
        assert "models/sae.lsrv" in signatures(fresh_run, "train")
        before = model.stat()
        with open(model, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last[0] ^ 1]))
        os.utime(model, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (model.stat().st_size, model.stat().st_mtime_ns) == \
            (before.st_size, before.st_mtime_ns)
        run_stages(TINY, fresh_run, "report")
        stale = {"train", "taskmap", "factors", "fieldmap", "embodiment", "servo", "reinforce",
                 "evaluate"}
        assert report_statuses((fresh_run / "report.md").read_text()) == {
            stage: "STALE" if stage in stale else "DONE" for stage in STAGE_TABLE}

    def test_embodiment_covers_trained_methods(self, pipeline_run):
        report = json.loads((pipeline_run / "analysis" / "embodiment.json").read_text())
        assert set(report) == {"bvae", "sae"}
        for rep in report.values():
            assert 0.0 <= rep["jaccard"] <= 1.0

    def test_report_marks_missing_stage_skipped(self, tmp_path):
        out = tmp_path / "fresh"
        assert main(["demo-gen", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        assert main(["report", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        text = (out / "report.md").read_text()
        assert "SKIPPED" in text

    def test_missing_model_reruns_train(self, tmp_path, capsys):
        out = tmp_path / "lost"
        assert main(["factors", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        (out / "models" / "sae.lsrv").unlink()
        capsys.readouterr()
        assert main(["servo", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        log = capsys.readouterr().out
        # The re-trained model is byte-identical, so the factors stay valid.
        assert "[train] running" in log and "[factors] up to date" in log
        assert "[servo] running" in log  # it had never run in this directory
        assert (out / "models" / "sae.lsrv").exists()
        assert (out / "control" / "servo_sae_stats.json").exists()

    def test_forced_train_reruns_downstream(self, tmp_path, capsys):
        out = tmp_path / "forced"
        assert main(["servo", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", str(TINY), "--out", str(out),
                     "--force"]) == EXIT_OK
        capsys.readouterr()
        assert main(["servo", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        log = capsys.readouterr().out
        assert "[demo-gen] up to date" in log and "[train] up to date" in log
        # The forced re-train rewrote byte-identical models: nothing downstream is lost.
        assert "[factors] up to date" in log and "[servo] up to date" in log

    def test_reinforce_edit_reruns_only_reinforce_and_evaluate(self, cold_copy, tmp_path,
                                                                capsys):
        ini = tiny_with(tmp_path, ("learning_rate = 1e-4", "learning_rate = 2e-4"))
        capsys.readouterr()
        run_stages(ini, cold_copy, "evaluate")
        assert ran(capsys.readouterr().out) == ["reinforce", "evaluate"]

    def test_include_oracle_edit_reruns_only_evaluate(self, cold_copy, tmp_path, capsys):
        ini = tiny_with(tmp_path, ("include_oracle = true", "include_oracle = false"))
        capsys.readouterr()
        run_stages(ini, cold_copy, "evaluate")
        log = capsys.readouterr().out
        assert ran(log) == ["evaluate"]
        assert "[servo] up to date" in log and "[reinforce] up to date" in log
        table = json.loads((cold_copy / "control" / "evaluate.json").read_text())
        assert set(table["success_rate"]) == {"sae"}

    def test_sae_epochs_edit_reruns_train_factors_servo(self, cold_copy, tmp_path, capsys):
        ini = tiny_with(tmp_path, ("epochs = 80", "epochs = 81"))
        capsys.readouterr()
        run_stages(ini, cold_copy, "servo")
        assert ran(capsys.readouterr().out) == ["train", "factors", "servo"]

    def test_changed_model_bytes_rerun_train(self, cold_copy, capsys):
        model = cold_copy / "models" / "sae.lsrv"
        good = model.read_bytes()
        model.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
        capsys.readouterr()
        run_stages(TINY, cold_copy, "evaluate")
        # The re-trained model has its old bytes again, so nothing downstream re-runs.
        assert ran(capsys.readouterr().out) == ["train"]
        assert model.read_bytes() == good

    def test_stray_demo_directory_is_not_read(self, cold_copy, capsys):
        models = {p.name: p.read_bytes() for p in (cold_copy / "models").iterdir()}
        teacher = cold_copy / "demos" / "teacher"
        shutil.copy(teacher / "demo_000.pgm", teacher / "demo_009.pgm")  # demo-gen never wrote it
        assert main(["train", "--config", str(TINY), "--out", str(cold_copy),
                     "--force"]) == EXIT_OK
        assert {p.name: p.read_bytes() for p in (cold_copy / "models").iterdir()} == models
        capsys.readouterr()
        run_stages(TINY, cold_copy, "factors")
        assert ran(capsys.readouterr().out) == []

    @pytest.mark.parametrize("manifest", ["kept", "lost"])
    def test_demo_gen_leaves_no_demo_of_a_larger_run(self, cold_copy, tmp_path, manifest):
        ini = tiny_with(tmp_path, ("count = 2", "count = 1"),
                        ("starts = 0.1, 0.1; 0.85, 0.2", "starts = 0.1, 0.1"))
        if manifest == "lost":  # nothing records the old demos
            (cold_copy / "manifest.json").unlink()
        run_stages(ini, cold_copy, "demo-gen")
        for sprite in ("teacher", "executor"):
            demos = sorted(p.name for p in (cold_copy / "demos" / sprite).iterdir())
            assert demos == ["demo_000.pgm"]

    def test_a_run_with_demo_directories_is_upgraded(self, cold_copy, capsys):
        # Written before demos became single files, each demo is a directory
        # of frames and records a directory digest: demo-gen runs again, and
        # so does every stage downstream of it.
        models = {p.name: p.read_bytes() for p in (cold_copy / "models").iterdir()}
        data = json.loads((cold_copy / "manifest.json").read_text())
        outputs = data["stages"]["demo-gen"]["outputs"]
        for rel in sorted(outputs):
            old = rel.removesuffix(".pgm")
            (cold_copy / rel).unlink()
            (cold_copy / old).mkdir()
            (cold_copy / old / "manifest.json").write_text("{}")
            (cold_copy / old / "frame_0000.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(1024))
            del outputs[rel]
            outputs[old] = hashlib.sha256(old.encode()).hexdigest()
        (cold_copy / "manifest.json").write_text(json.dumps(data))
        manifest, tree = RunManifest.open(cold_copy, None), plain(load_config(TINY))
        for stage in list(STAGE_TABLE)[1:]:  # each key as it was recorded then
            manifest.stages[stage]["key"] = stage_key(tree, manifest, stage)
        (cold_copy / "manifest.json").write_text(json.dumps(data | {"stages": manifest.stages}))
        capsys.readouterr()
        run_stages(TINY, cold_copy, "evaluate")
        assert ran(capsys.readouterr().out) == ["demo-gen", "train", "factors", "servo",
                                                "reinforce", "evaluate"]
        assert [p for p in (cold_copy / "demos").glob("*/*") if not p.is_file()] == []
        assert unrecorded(cold_copy) == []
        assert {p.name: p.read_bytes() for p in (cold_copy / "models").iterdir()} == models

    def test_rerun_removes_the_outputs_it_no_longer_writes(self, cold_copy, tmp_path):
        ini = tiny_with(tmp_path, ("trials = 3", "trials = 2"))
        run_stages(ini, cold_copy, "servo")
        traces = sorted(p.name for p in (cold_copy / "control").glob("servo_sae_trial*"))
        assert traces == ["servo_sae_trial00.csv", "servo_sae_trial01.csv"]

    def test_report_lists_only_the_recorded_factors(self, cold_copy, tmp_path):
        ini = tiny_with(tmp_path, ("train = bvae, sae", "train = sae"))
        run_stages(ini, cold_copy, "factors", "report")
        text = (cold_copy / "report.md").read_text()
        section = text.split("## Time-varying factors")[1].split("##")[0]
        rows = [line.split("|")[1].strip() for line in section.splitlines()[4:] if line]
        assert rows == ["sae"]

    @pytest.mark.parametrize("edits", [
        [("learning_rate = 1e-4", "learning_rate = 2e-4")],
        [("r_goal = 10.0", "r_goal = 5.0")],
        [("tau = 0.2", "tau = 0.1")],
        [("count = 2", "count = 1"), ("starts = 0.1, 0.1; 0.85, 0.2", "starts = 0.1, 0.1")],
    ], ids=["reinforce-learning_rate", "reinforce-r_goal", "analysis-tau", "demos-count"])
    def test_cached_run_matches_a_cold_run(self, cold_copy, tmp_path, edits):
        ini = tiny_with(tmp_path, *edits)
        fresh = tmp_path / "fresh"
        run_stages(ini, cold_copy, *PIPELINE)
        run_stages(ini, fresh, *PIPELINE)
        cached, cold = artifact_bytes(cold_copy), artifact_bytes(fresh)
        assert sorted(cached) == sorted(cold)
        assert [name for name in cold if cached[name] != cold[name]] == []

    def test_report_marks_stale_stages(self, cold_copy, tmp_path):
        ini = tiny_with(tmp_path, ("tau = 0.2", "tau = 0.1"))
        run_stages(ini, cold_copy, "report")
        text = (cold_copy / "report.md").read_text()
        stale = {"factors", "alpha-sweep", "embodiment", "fieldmap", "servo", "reinforce",
                 "evaluate"}
        assert report_statuses(text) == {
            stage: "STALE" if stage in stale else "DONE" for stage in STAGE_TABLE}
        assert [s for s in SUMMARY_SECTIONS if s in text] == []
        # Without the config the report shows what the manifest recorded.
        assert main(["report", "--out", str(cold_copy)]) == EXIT_OK
        text = (cold_copy / "report.md").read_text()
        assert set(report_statuses(text).values()) == {"DONE"}
        run_stages(ini, cold_copy, "evaluate", "alpha-sweep", "fieldmap", "embodiment",
                   "report")
        text = (cold_copy / "report.md").read_text()
        assert set(report_statuses(text).values()) == {"DONE"}
        assert [s for s in SUMMARY_SECTIONS if s not in text] == []

    def test_report_marks_a_stage_with_a_missing_output_stale(self, cold_copy):
        (cold_copy / "control" / "servo_sae_stats.json").unlink()
        run_stages(TINY, cold_copy, "report")
        stale = {"servo", "evaluate"}
        assert report_statuses((cold_copy / "report.md").read_text()) == {
            stage: "STALE" if stage in stale else "DONE" for stage in STAGE_TABLE}

    def test_every_file_is_a_recorded_output(self, cold_run):
        assert unrecorded(cold_run) == []

    def test_every_recorded_output_is_a_file(self, cold_run):
        stages = json.loads((cold_run / "manifest.json").read_text())["stages"]
        outputs = [rel for entry in stages.values() for rel in entry["outputs"]]
        assert "demos/teacher/demo_000.pgm" in outputs
        assert [rel for rel in outputs if not (cold_run / rel).is_file()] == []

    def test_report_from_run_dir_alone(self, pipeline_run):
        assert main(["report", "--out", str(pipeline_run)]) == EXIT_OK

    def test_report_from_run_dir_is_recorded(self, tmp_path):
        out = tmp_path / "run"
        run_stages(TINY, out, "demo-gen")
        digest = json.loads((out / "manifest.json").read_text())["config_digest"]
        assert main(["report", "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "manifest.json").read_text())
        assert data["config_digest"] == digest
        assert (data["stages"]["report"]["status"], list(data["stages"]["report"]["outputs"])) \
            == ("done", ["report.md"])
        assert unrecorded(out) == []

    def test_report_references_every_artifact(self, pipeline_run):
        manifest = json.loads((pipeline_run / "manifest.json").read_text())
        text = (pipeline_run / "report.md").read_text()
        for stage, entry in manifest["stages"].items():
            if stage == "report":
                continue
            for out in entry.get("outputs", []):
                assert Path(out).name in text, f"report misses {out}"

    def test_taskmap_svg_has_polyline_per_dim(self, pipeline_run):
        factors = json.loads(
            (pipeline_run / "analysis" / "factors_sae.json").read_text())
        latent = len(factors["all"]["spreads"])
        svg = (pipeline_run / "analysis" / "taskmap_sae.svg").read_text()
        assert svg.count("<polyline") == min(latent, 16)

    def test_fieldmap_heatmap_per_factor(self, pipeline_run):
        factors = json.loads(
            (pipeline_run / "analysis" / "factors_sae.json").read_text())
        for dim in factors["control"]["indices"]:
            assert (pipeline_run / "analysis" / f"fieldmap_sae_f{dim}.svg").exists()

    def test_every_csv_row_fills_its_header(self, pipeline_run):
        tables = sorted(pipeline_run.rglob("*.csv"))
        assert len(tables) == 10
        for path in tables:
            header, *rows = path.read_text().splitlines()
            assert [row for row in rows if row.count(",") != header.count(",")] == [], path

    def test_every_json_artifact_is_indented_and_key_sorted(self, pipeline_run):
        records = [p for p in sorted(pipeline_run.rglob("*.json"))
                   if p != pipeline_run / "manifest.json"]
        assert len(records) == 9
        for path in records:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True), path

    def test_tables_name_their_columns(self, pipeline_run):
        def shape(rel):
            header, *rows = (pipeline_run / rel).read_text().splitlines()
            return header, len(rows)

        factors = json.loads((pipeline_run / "analysis" / "factors_sae.json").read_text())
        dims = ",".join(f"dim_{d}" for d in range(len(factors["all"]["spreads"])))
        control = ",".join(f"f{d}" for d in factors["control"]["indices"])
        assert shape("models/sae_loss.csv") == ("epoch,loss", 1 + 80)  # untrained, epochs
        assert shape("analysis/taskmap_sae.csv") == (f"t,{dims}", 9)  # 8 steps
        assert shape("analysis/alpha_sweep.csv") == ("alpha,score,time_varying_factors", 2)
        assert shape("analysis/fieldmap_sae.csv") == (f"x,y,{control}", 12 * 12)
        assert shape("control/reinforce_sae_rewards.csv") == ("episode,reward", 16)
        stats = json.loads((pipeline_run / "control" / "servo_sae_stats.json").read_text())
        for i, trial in enumerate(stats["trials"]):
            assert shape(f"control/servo_sae_trial{i:02d}.csv") == \
                ("step,z0,z1,a0,a1,reward", trial["steps"])

    def test_failed_episode_trace_still_written(self, pipeline_run):
        stats = json.loads(
            (pipeline_run / "control" / "servo_sae_stats.json").read_text())
        for i, trial in enumerate(stats["trials"]):
            assert (pipeline_run / "control" / f"servo_sae_trial{i:02d}.csv").exists()


class TestToyConfig:
    TOY = Path(__file__).parent.parent / "configs" / "toy.ini"

    def test_toy_corpus_has_three_sequences(self, tmp_path):
        cfg = load_config(self.TOY, out_override=str(tmp_path / "run"))
        assert cfg.demos.count == 3
        assert main(["demo-gen", "--config", str(self.TOY),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        teacher = list((tmp_path / "run" / "demos" / "teacher").glob("demo_*"))
        assert len(teacher) == 3

    def test_demo_gen_deterministic_across_dirs(self, tmp_path):
        for tag in ("a", "b"):
            assert main(["demo-gen", "--config", str(self.TOY),
                         "--out", str(tmp_path / tag)]) == EXIT_OK
        for rel in sorted((tmp_path / "a").rglob("*.pgm")):
            other = tmp_path / "b" / rel.relative_to(tmp_path / "a")
            assert rel.read_bytes() == other.read_bytes()


class TestExitCodes:
    def test_missing_config(self):
        assert main(["train"]) == EXIT_CONFIG

    def test_nonexistent_config(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_invalid_config(self, tmp_path):
        p = write_config(tmp_path, "[meta]\nschema_version = 2\n")
        assert main(["train", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("stage", ["demo-gen", "factors", "report"])
    @pytest.mark.parametrize("text", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
    def test_corrupted_manifest_io_error(self, tmp_path, text, stage):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_bytes(text)
        ini = write_config(tmp_path, MINIMAL.format(out=out))
        assert main([stage, "--config", str(ini)]) == EXIT_IO
        if stage == "report":
            assert main([stage, "--out", str(out)]) == EXIT_IO

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == EXIT_IO
        assert error_line(capsys).startswith("I/O error: ")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_bytes(b"[meta]\nschema_version = 1\nout_dir = caf\xe9\n")
        assert main(["train", "--config", str(p)]) == EXIT_CONFIG
        assert error_line(capsys).startswith("config error: ")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_fit_is_a_stage_failure(self, tmp_path, capsys):
        out = tmp_path / "run"
        ini = tiny_with(tmp_path, ("epochs = 60\nbatch_size = 16\nlearning_rate = 2e-3",
                                   "epochs = 3\nbatch_size = 16\nlearning_rate = 1e9"))
        assert main(["train", "--config", str(ini), "--out", str(out)]) == EXIT_STAGE
        line = error_line(capsys)
        assert line.startswith("stage failure: ") and "at epoch" in line
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["demo-gen"]["status"] == "done"
        assert stages["train"]["status"] == "failed"

    def test_alpha_sweep_without_bvae_is_a_stage_failure(self, tmp_path, capsys):
        text = TINY.read_text()
        bvae = text[text.index("[method.bvae]"):text.index("[method.sae]")]
        ini = tiny_with(tmp_path, ("train = bvae, sae", "train = sae"), (bvae, ""))
        assert main(["alpha-sweep", "--config", str(ini),
                     "--out", str(tmp_path / "run")]) == EXIT_STAGE
        assert error_line(capsys) == "stage failure: alpha sweep needs a [method.bvae] section\n"

    def test_removed_train_flags_are_refused(self, tmp_path):
        out = tmp_path / "run"
        for flags in (["--method", "sae"], ["--latent-dim", "8"]):
            with pytest.raises(SystemExit) as exit_:
                main(["train", "--config", str(TINY), "--out", str(out), *flags])
            assert exit_.value.code == EXIT_CONFIG
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags", [["--method", "sae"], ["--latent-dim", "8"]])
    @pytest.mark.parametrize("stage", ["servo", "demo-gen", "report"])
    def test_train_flags_on_another_stage(self, stage, flags, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([stage, "--config", str(TINY), *flags])
        assert exit_.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_stage(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["deploy", "--config", str(TINY)])
        assert exit_.value.code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err

    def test_train_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--help"])
        assert exit_.value.code == EXIT_OK
        help_text = capsys.readouterr().out
        for flag in ("--config", "--force", "--seed", "--out"):
            assert flag in help_text

    def test_report_without_anything(self):
        assert main(["report"]) == EXIT_CONFIG

    def test_report_missing_run_dir(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "ghost")]) == EXIT_IO


@pytest.mark.parametrize("entry", [
    ["-m", "latentservo.cli.main", "report"],
    ["-c", "import sys; from latentservo.cli import main; sys.exit(main(['report']))"],
    ["-c", "import sys, latentservo.cli.main; from latentservo.cli import main; "
           "sys.exit(main(['report']))"],
], ids=["module", "package-attribute", "after-the-submodule"])
def test_entry_points_start_without_warnings(entry):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *entry],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr == "--config is required\n"
