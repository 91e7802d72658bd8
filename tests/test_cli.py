"""Config validation, manifest caching, subcommand wiring, exit codes."""

import json
from pathlib import Path

import pytest

from latentservo.cli.config import load_config
from latentservo.cli.main import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from latentservo.cli.manifest import ManifestError, RunManifest
from latentservo.representations import ConfigError

TINY = Path(__file__).parent / "data" / "tiny.ini"


def write_config(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


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

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL.format(out=tmp_path / "a")),
                          seed_override=42, out_override=str(tmp_path / "b"))
        assert cfg.seed == 42
        assert cfg.out_dir == tmp_path / "b"
        assert cfg.methods["ae"].spec.seed == 42

    def test_digest_stable_and_seed_sensitive(self, tmp_path):
        p = write_config(tmp_path, MINIMAL.format(out=tmp_path / "run"))
        assert load_config(p).digest() == load_config(p).digest()
        assert load_config(p).digest() != load_config(p, seed_override=9).digest()


class TestManifest:
    def test_round_trip_and_caching(self, tmp_path):
        m = RunManifest.open(tmp_path, "digest-a")
        assert not m.is_current("train")
        m.record("train", ["models/x.lsrv"], 1.5)
        again = RunManifest.open(tmp_path, "digest-a")
        assert again.is_current("train")
        assert again.outputs("train") == ["models/x.lsrv"]
        changed = RunManifest.open(tmp_path, "digest-b")
        assert not changed.is_current("train")

    def test_corrupted_manifest_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ManifestError, match="corrupted"):
            RunManifest.open(tmp_path, "x")

    def test_failure_recorded(self, tmp_path):
        m = RunManifest.open(tmp_path, "d")
        m.record_failure("train", "boom")
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["stages"]["train"]["status"] == "failed"


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One tiny end-to-end run shared by the CLI assertions."""
    out = tmp_path_factory.mktemp("run")
    rc = main(["evaluate", "--config", str(TINY), "--out", str(out)])
    assert rc == EXIT_OK
    for stage in ("taskmap", "alpha-sweep", "fieldmap", "embodiment", "report"):
        assert main([stage, "--config", str(TINY), "--out", str(out)]) == EXIT_OK
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

    def test_partial_train_does_not_satisfy_train(self, tmp_path):
        out = tmp_path / "partial"
        assert main(["train", "--config", str(TINY), "--out", str(out),
                     "--method", "sae"]) == EXIT_OK
        assert not (out / "models" / "bvae.lsrv").exists()
        assert main(["factors", "--config", str(TINY), "--out", str(out)]) == EXIT_OK
        assert (out / "models" / "bvae.lsrv").exists()

    def test_report_from_run_dir_alone(self, pipeline_run):
        assert main(["report", "--out", str(pipeline_run)]) == EXIT_OK

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

    def test_weight_files_share_dataset_digest(self, pipeline_run):
        from latentservo.representations import load as load_weights
        digests = {load_weights(p).dataset_digest
                   for p in (pipeline_run / "models").glob("*.lsrv")}
        assert len(digests) == 1 and digests != {""}

    def test_latent_dim_sweep_writes_variants(self, pipeline_run):
        rc = main(["train", "--config", str(TINY), "--out", str(pipeline_run),
                   "--method", "bvae", "--latent-dim", "8,12", "--force"])
        assert rc == EXIT_OK
        assert (pipeline_run / "models" / "bvae_d8.lsrv").exists()
        assert (pipeline_run / "models" / "bvae_d12.lsrv").exists()
        assert (pipeline_run / "models" / "bvae_d8_loss.csv").exists()

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

    def test_corrupted_manifest_io_error(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{broken")
        p = write_config(tmp_path, MINIMAL.format(out=out))
        assert main(["demo-gen", "--config", str(p)]) == EXIT_IO

    def test_report_without_anything(self):
        assert main(["report"]) == EXIT_CONFIG

    def test_report_missing_run_dir(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "ghost")]) == EXIT_IO
