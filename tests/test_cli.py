"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import _default_hyper, build_parser, main
from repro.core.registry import available_techniques
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_every_experiment_id(self):
        parser = build_parser()
        for exp in EXPERIMENTS:
            args = parser.parse_args(["run", exp])
            assert args.experiment == exp

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_dataset_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "imagenet"])

    def test_train_parses_overrides(self):
        args = build_parser().parse_args(
            ["train", "movielens", "memcom", "--epochs", "2", "--hash-fraction", "8"]
        )
        assert args.epochs == 2 and args.hash_fraction == 8


class TestCommands:
    def test_list_prints_all_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in EXPERIMENTS:
            assert exp in out
        assert "movielens" in out and "memcom" in out

    def test_dataset_shows_scaled_spec(self, capsys):
        assert main(["dataset", "arcade", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "input_vocab" in out and "600" in out

    def test_dataset_full_scale_matches_table2(self, capsys):
        assert main(["dataset", "movielens"]) == 0
        out = capsys.readouterr().out
        assert "10000" in out and "5000" in out

    def test_train_runs_one_model(self, capsys):
        code = main(
            ["train", "movielens", "hash", "--scale", "0.5", "--epochs", "1",
             "--embedding-dim", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ndcg" in out

    def test_run_executes_fast_experiment(self, capsys):
        # "props" is analytic (no training) — fast enough for unit tests.
        assert main(["run", "props", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out


class TestTrainFailFast:
    """Bad training arguments die up front with a one-line message (exit 2)."""

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (("--epochs", "0"), "--epochs"),
            (("--embedding-dim", "-2"), "--embedding-dim"),
            (("--hash-fraction", "0"), "--hash-fraction"),
            (("--scale", "-0.5"), "--scale"),
        ],
    )
    def test_each_bad_value_names_its_flag(self, capsys, flags, fragment):
        code = main(["train", "movielens", "memcom", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert fragment in err
        assert "Traceback" not in err

    def test_save_artifact_exports_and_verifies(self, tmp_path, capsys):
        out = str(tmp_path / "trained")
        code = main(
            ["train", "movielens", "memcom", "--epochs", "1",
             "--embedding-dim", "8", "--save-artifact", out, "--bits", "8"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ModelArtifact" in stdout
        assert "verified" in stdout and "bit-for-bit" in stdout


class TestPipelineCommands:
    def test_run_checkpoint_kill_resume_export(self, tmp_path, capsys):
        """The full lifecycle: train → checkpoint → kill → resume →
        export-artifact → reload-verify, all from the shell."""
        ck = str(tmp_path / "ck")
        art = str(tmp_path / "art")
        code = main(
            ["pipeline", "run", "--dataset", "movielens", "--epochs", "2",
             "--embedding-dim", "8", "--checkpoint", ck,
             "--stop-after-epoch", "1"]
        )
        assert code == 0
        assert "interrupted at epoch 1/2" in capsys.readouterr().out
        code = main(["pipeline", "resume", ck, "--export", art, "--bits", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from epoch 1" in out
        assert "verified" in out and "bit-for-bit" in out

    def test_export_subcommand(self, tmp_path, capsys):
        ck = str(tmp_path / "ck")
        assert main(
            ["pipeline", "run", "--dataset", "movielens", "--epochs", "1",
             "--embedding-dim", "8", "--checkpoint", ck]
        ) == 0
        capsys.readouterr()
        assert main(["pipeline", "export", ck, str(tmp_path / "art.zip")]) == 0
        assert "verified" in capsys.readouterr().out

    def test_resume_without_checkpoint_is_clean_error(self, capsys):
        code = main(["pipeline", "resume", "/nonexistent/ck"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err

    def test_resume_of_serving_artifact_is_clean_error(self, tmp_path, capsys):
        out = str(tmp_path / "serving")
        assert main(
            ["export-artifact", out, "--technique", "memcom", "--vocab", "400",
             "--embedding-dim", "8", "--input-length", "4", "--num-items", "10"]
        ) == 0
        capsys.readouterr()
        code = main(["pipeline", "resume", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "no training checkpoint" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (("--epochs", "0"), "--epochs"),
            (("--batch-size", "-1"), "--batch-size"),
            (("--lr", "0"), "--lr"),
            (("--checkpoint-every", "0"), "--checkpoint-every"),
            (("--stop-after-epoch", "0"), "--stop-after-epoch"),
        ],
    )
    def test_run_validates_arguments(self, capsys, flags, fragment):
        code = main(["pipeline", "run", "--dataset", "movielens", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert fragment in err
        assert "Traceback" not in err

    def test_stop_after_requires_checkpoint(self, capsys):
        code = main(
            ["pipeline", "run", "--dataset", "movielens", "--stop-after-epoch", "1"]
        )
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err


class TestDefaultHyper:
    def test_covers_every_registered_technique(self):
        for technique in available_techniques():
            hyper = _default_hyper(technique, vocab=1000, dim=32, hash_fraction=16)
            assert isinstance(hyper, dict)

    def test_hash_fraction_controls_m(self):
        assert _default_hyper("memcom", 1000, 32, 16) == {"num_hash_embeddings": 62}
        assert _default_hyper("memcom", 1000, 32, 8) == {"num_hash_embeddings": 125}

    def test_tiny_vocab_floors_at_two(self):
        assert _default_hyper("hash", 8, 32, 16)["num_hash_embeddings"] == 2


class TestServeBenchValidation:
    """Bad serving arguments die up front with a one-line message (exit 2)."""

    def _run(self, capsys, *extra):
        code = main(
            ["serve-bench", "--vocab", "400", "--embedding-dim", "8",
             "--input-length", "4", "--requests", "64", "--batch-size", "16",
             *extra]
        )
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (("--vocab", "0"), "--vocab"),
            (("--embedding-dim", "-2"), "--embedding-dim"),
            (("--requests", "0"), "--requests"),
            (("--batch-size", "-1"), "--batch-size"),
            (("--cache-rows", "-5"), "--cache-rows"),
            (("--cache-min-count", "0"), "cache_min_count"),
            (("--cache-ttl-batches", "0"), "cache_ttl_batches"),
            (("--alpha", "-0.5"), "--alpha"),
        ],
    )
    def test_each_bad_value_names_its_flag(self, capsys, flags, fragment):
        code, err = self._run(capsys, *flags)
        assert code == 2
        assert fragment in err
        assert "Traceback" not in err

    def test_bits_rejected_by_argparse_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--bits", "16"])

    def test_missing_artifact_is_a_clean_error(self, capsys):
        code, err = self._run(capsys, "--artifact", "/nonexistent/artifact")
        assert code == 2
        assert "artifact" in err


class TestArtifactCommands:
    def _export(self, out, *extra):
        return main(
            ["export-artifact", out, "--technique", "memcom", "--vocab", "400",
             "--embedding-dim", "8", "--input-length", "4", "--num-items", "10",
             *extra]
        )

    def test_export_then_serve_bench_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "artifact")
        assert self._export(out, "--bits", "8") == 0
        stdout = capsys.readouterr().out
        assert "ModelArtifact" in stdout and "verified: reload OK" in stdout
        code = main(
            ["serve-bench", "--artifact", out, "--requests", "64",
             "--batch-size", "16", "--cache-rows", "32"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "artifact" in stdout and "artifact+cache" in stdout

    def test_export_zip(self, tmp_path, capsys):
        out = str(tmp_path / "artifact.zip")
        assert self._export(out) == 0
        assert "verified: reload OK" in capsys.readouterr().out

    def test_export_validates_arguments(self, tmp_path, capsys):
        assert self._export(str(tmp_path / "a"), "--vocab", "-1") == 2
        assert "--vocab" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-bench", "export-artifact"])
    def test_shards_flag_is_gone(self, tmp_path, capsys, command):
        # Every table is one monolithic table; --shards no longer parses.
        extra = [str(tmp_path / "a")] if command == "export-artifact" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--shards", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_serve_bench_cache_rows_zero_disables_cache(self, capsys):
        code = main(
            ["serve-bench", "--vocab", "400", "--embedding-dim", "8",
             "--input-length", "4", "--requests", "64", "--batch-size", "16",
             "--cache-rows", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monolithic+cache" in out  # row exists, cache disabled: no hit%


class TestServeBenchChecksums:
    """Every serve-bench row replays one stream: same-width rows must agree."""

    ARGS = ["serve-bench", "--vocab", "400", "--embedding-dim", "8",
            "--input-length", "4", "--requests", "64", "--batch-size", "16",
            "--cache-rows", "32", "--bits", "8"]

    @staticmethod
    def _checksums(out):
        rows = [line.split("|") for line in out.splitlines() if line.count("|") == 7]
        return {cells[0].strip(): cells[-1].strip() for cells in rows[1:]}

    def test_one_checksum_per_width(self, capsys):
        assert main(self.ARGS) == 0
        sums = self._checksums(capsys.readouterr().out)
        fp32 = ["monolithic", "monolithic+cache"]
        assert sorted(sums) == sorted(fp32 + ["int8", "int8+cache"])
        assert len({sums[label] for label in fp32}) == 1
        assert sums["int8"] == sums["int8+cache"] != sums["monolithic"]

    def test_diverging_row_exits_1_and_is_named(self, capsys, monkeypatch):
        from repro.serve.session import ServeSession

        original = ServeSession.from_model.__func__

        def from_model(cls, model, config=None, **overrides):
            session = original(cls, model, config, **overrides)
            engine = session.engine
            if engine.bits == 8 and engine.cache is not None:
                predict = engine.predict
                engine.predict = lambda ids: predict(ids) + 1.0
            return session

        monkeypatch.setattr(ServeSession, "from_model", classmethod(from_model))
        # tt_rec keeps its int8 cache (memcom's declines), so the int8+cache
        # row is the one that diverges
        assert main([*self.ARGS, "--technique", "tt_rec"]) == 1
        err = capsys.readouterr().err
        assert "'int8+cache'" in err and "Traceback" not in err


class TestServeBenchDeclinedCache:
    """A +cache row whose engine declined the cache says why."""

    ARGS = ["serve-bench", "--vocab", "400", "--embedding-dim", "8",
            "--input-length", "4", "--requests", "64", "--batch-size", "16",
            "--cache-rows", "32"]

    def test_memcom_prints_the_reason(self, capsys):
        assert main([*self.ARGS, "--technique", "memcom"]) == 0
        out = capsys.readouterr().out
        assert "monolithic+cache: cache declined: a row is gathers plus add/mul" in out

    def test_tt_rec_still_prints_a_hit_rate(self, capsys):
        assert main([*self.ARGS, "--technique", "tt_rec"]) == 0
        out = capsys.readouterr().out
        assert "declined" not in out
        row = next(line for line in out.splitlines() if line.startswith("monolithic+cache"))
        assert row.split("|")[6].strip().endswith("%")


class TestServeBenchEveryTechnique:
    """The serving front doors take every registered technique."""

    def test_technique_choices_are_the_registry(self):
        for command in ("serve-bench", "export-artifact"):
            extra = ["out"] if command == "export-artifact" else []
            for technique in available_techniques():
                args = build_parser().parse_args(
                    [command, *extra, "--technique", technique]
                )
                assert args.technique == technique

    def test_factorized_int8_stores_real_integers(self, capsys):
        code = main(["serve-bench", "--technique", "factorized", "--bits", "8", "--smoke"])
        assert code == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("int8 table-resident bytes")
        )
        ratio = float(line.split("(")[1].split("×")[0])
        assert ratio <= 0.35, line

    @pytest.mark.parametrize("command", ["serve-bench", "export-artifact"])
    @pytest.mark.parametrize("bits", ["8", "4"])
    def test_pooled_onehot_quantized_is_a_one_line_error(
        self, tmp_path, capsys, command, bits
    ):
        extra = [str(tmp_path / "a")] if command == "export-artifact" else []
        code = main([command, *extra, "--technique", "hashed_onehot", "--bits", bits,
                     "--vocab", "400", "--embedding-dim", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "pools" in err
        assert "Traceback" not in err


class TestArtifactBits:
    """serve-bench --artifact honors --bits (review regression)."""

    def _export_fp32(self, out):
        return main(
            ["export-artifact", out, "--technique", "memcom", "--vocab", "400",
             "--embedding-dim", "8", "--input-length", "4", "--num-items", "10"]
        )

    def test_bits_quantizes_fp32_artifact_on_load(self, tmp_path, capsys):
        out = str(tmp_path / "fp32")
        assert self._export_fp32(out) == 0
        capsys.readouterr()
        code = main(
            ["serve-bench", "--artifact", out, "--bits", "8", "--requests", "64",
             "--batch-size", "16"]
        )
        assert code == 0
        assert "int8" in capsys.readouterr().out  # title names the served width

    def test_width_conflict_exits_2_with_typed_message(self, tmp_path, capsys):
        out = str(tmp_path / "q8")
        assert self._export_fp32(out + "-tmp") == 0  # warm the builder path
        assert main(
            ["export-artifact", out, "--technique", "memcom", "--vocab", "400",
             "--embedding-dim", "8", "--input-length", "4", "--num-items", "10",
             "--bits", "8"]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve-bench", "--artifact", out, "--bits", "4", "--requests", "64",
             "--batch-size", "16"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "int8" in err and "Traceback" not in err

    def test_export_percentile_validated_up_front(self, tmp_path, capsys):
        code = main(
            ["export-artifact", str(tmp_path / "p"), "--vocab", "400",
             "--embedding-dim", "8", "--input-length", "4", "--num-items", "10",
             "--bits", "8", "--percentile", "150"]
        )
        assert code == 2
        assert "--percentile" in capsys.readouterr().err


class TestArtifactInspect:
    def _artifact(self, tmp_path, name="a"):
        import numpy as np

        from repro.artifact import save_artifact
        from repro.models.builder import build_pointwise_ranker

        model = build_pointwise_ranker(
            "full", 200, 10, input_length=6, embedding_dim=8, rng=0
        )
        state = model.state_dict()
        checkpoint = (
            {"train_state": {"epoch": 2}},
            {
                **{f"model/{k}": v for k, v in state.items()},
                "opt/velocity.0": np.zeros_like(model.embedding.table.data),
            },
        )
        path = str(tmp_path / name)
        save_artifact(model, path, checkpoint=checkpoint)
        return model, path

    def test_inspect_shows_payload_table_and_checkpoint(self, tmp_path, capsys):
        _model, path = self._artifact(tmp_path)
        assert main(["artifact", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "format v3" in out
        assert "alias → embedding/table" in out
        assert "zeros (elided)" in out
        assert "epoch 2" in out

    def test_inspect_walks_the_delta_chain(self, tmp_path, capsys):
        from repro.artifact import save_delta

        model, parent = self._artifact(tmp_path, "parent")
        model.embedding.table.data[[1, 5]] += 0.5
        delta = str(tmp_path / "delta")
        save_delta(model, delta, parent, touched_rows=[1, 5])
        assert main(["artifact", "inspect", delta]) == 0
        out = capsys.readouterr().out
        assert "depth 1" in out
        assert "manifest sha256 ok" in out
        assert "rows(2)" in out

    def test_inspect_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        assert main(["artifact", "inspect", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


class TestSweepValidation:
    """`repro sweep run` dies up front with a one-line message (exit 2)."""

    def _run(self, capsys, *extra):
        code = main(["sweep", "run", "/tmp/cli-sweep-validation", *extra])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (("--scale", "0"), "--scale"),
            (("--epochs", "-1"), "--epochs"),
            (("--batch-size", "0"), "--batch-size"),
            (("--lr", "-0.1"), "--lr"),
            (("--embedding-dim", "0"), "--embedding-dim"),
            (("--workers", "-1"), "--workers"),
            (("--budget-kb", "0"), "--budget-kb"),
            (("--distill-alpha", "1.5"), "--distill-alpha"),
            (("--distill-temperature", "0"), "--distill-temperature"),
            (("--techniques", "warp_drive"), "unknown technique"),
            (("--techniques", ""), "techniques"),
            (("--fractions", "0"), "--fractions"),
            (("--fractions", "eight"), "fractions"),
            (("--bits", "16"), "--bits"),
        ],
    )
    def test_each_bad_value_names_its_flag(self, capsys, flags, fragment):
        code, err = self._run(capsys, *flags)
        assert code == 2
        assert fragment in err
        assert "Traceback" not in err
        assert err.startswith("repro sweep run: error:")

    def test_unknown_dataset_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run", "/tmp/x", "--dataset", "imagenet"])

    def test_sweep_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_resume_rejects_negative_workers(self, capsys):
        code = main(["sweep", "resume", "/tmp/nowhere", "--workers", "-2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err

    def test_resume_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        code = main(["sweep", "resume", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no sweep found" in err

    def test_report_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        code = main(["sweep", "report", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert "no sweep found" in err


class TestSweepCommands:
    def test_run_report_export_winner_loop(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", "run", out, "--dataset", "movielens", "--techniques",
             "memcom", "--fractions", "8", "--bits", "32,8", "--budget-kb",
             "64", "--workers", "0", "--scale", "0.5", "--epochs", "1",
             "--embedding-dim", "8"]
        )
        assert code == 0
        assert "sweep complete: 2 points" in capsys.readouterr().out

        report_json = str(tmp_path / "report.json")
        winner_dir = str(tmp_path / "winner")
        code = main(
            ["sweep", "report", out, "--json", report_json,
             "--export-winner", winner_dir]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "winner" in printed
        import json as _json
        import os as _os

        payload = _json.loads(open(report_json).read())
        assert payload["winner"] is not None
        assert len(payload["rows"]) == 2
        assert _os.path.isdir(winner_dir)

        # Re-running on the same directory refuses to clobber the ledger.
        code = main(["sweep", "run", out, "--workers", "0"])
        assert code == 2
        assert "already holds a sweep" in capsys.readouterr().err

        # Resume on the complete sweep is a no-op success.
        assert main(["sweep", "resume", out, "--workers", "0"]) == 0

    def test_export_winner_refuses_existing_target(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(
            ["sweep", "run", out, "--techniques", "memcom", "--fractions", "8",
             "--workers", "0", "--scale", "0.5", "--epochs", "1",
             "--embedding-dim", "8"]
        ) == 0
        capsys.readouterr()
        target = tmp_path / "occupied"
        target.mkdir()
        code = main(["sweep", "report", out, "--export-winner", str(target)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err
