"""Fleet execution: serial-vs-parallel identity and crash-safe resume.

The tentpole guarantees under test:

* an N-point sweep across W>1 workers produces a consolidated report
  **byte-identical** to the same grid run serially (the artifact manifest
  hashes agree payload-for-payload, so the exported tensors are identical);
* SIGKILLing a worker mid-grid loses only the in-flight point —
  ``resume()`` completes exactly the unfinished points and the final
  report is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.sizing import bytes_for_params, embedding_param_count
from repro.sweep import (
    SweepError,
    SweepIncompleteError,
    SweepSpec,
    build_report,
    device_bytes_for,
    execute_point,
    resume,
    run,
)

from sweep_helpers import sweep_base

GRID = {"hyper.num_hash_embeddings": [16, 32], "bits": [32, 8]}


def _sweep():
    return SweepSpec(base=sweep_base(), axes=GRID, budget_bytes=1 << 20)


@pytest.fixture(scope="module")
def serial_report_json(tmp_path_factory) -> str:
    """The uninterrupted serial reference every identity test compares to."""
    out = str(tmp_path_factory.mktemp("serial") / "sweep")
    run(_sweep(), out, workers=0)
    return build_report(out).to_json()


class TestExecutePoint:
    def test_result_fields_and_artifact(self, tmp_path, base_spec):
        data = base_spec.load_data()
        artifact = str(tmp_path / "artifacts" / "p0")
        os.makedirs(os.path.dirname(artifact))
        result = execute_point(base_spec, data, artifact_path=artifact, point_id="p0")
        assert result.point_id == "p0"
        assert result.metric_name == "ndcg"
        assert 0.0 <= result.metric <= 1.0
        assert result.params > result.embedding_params > 0
        assert result.device_bytes == device_bytes_for(
            base_spec, data.spec.input_vocab, result.params
        )
        assert os.path.isdir(artifact)
        assert result.artifact == "artifacts/p0"
        assert len(result.artifact_sha) == 64

    def test_device_bytes_splits_embedding_from_rest(self, base_spec):
        v, params = 500, 10_000
        emb = embedding_param_count(
            base_spec.technique, v, base_spec.embedding_dim, **base_spec.hyper
        )
        spec8 = sweep_base(bits=8)
        assert device_bytes_for(spec8, v, params) == bytes_for_params(
            emb, 8
        ) + bytes_for_params(params - emb, 32)

    def test_device_bytes_rejects_impossible_split(self, base_spec):
        with pytest.raises(ValueError, match="exceed total"):
            device_bytes_for(base_spec, 500, 1)


class TestSerialVsParallel:
    def test_two_workers_byte_identical_to_serial(
        self, tmp_path, serial_report_json
    ):
        out = str(tmp_path / "parallel")
        records = run(_sweep(), out, workers=2)
        assert len(records) == 4
        assert build_report(out).to_json() == serial_report_json

    def test_artifact_hashes_present(self, tmp_path, serial_report_json):
        out = str(tmp_path / "hashes")
        run(_sweep(), out, workers=0)
        report = build_report(out)
        assert all(row["artifact_sha"] for row in report.rows)


class TestCrashResume:
    def test_killed_worker_loses_only_its_point(
        self, tmp_path, serial_report_json
    ):
        sweep = _sweep()
        victim = sweep.expand()[0][0]
        out = str(tmp_path / "crash")
        with pytest.raises(SweepIncompleteError, match="resume"):
            run(sweep, out, workers=2, fail_points={victim: "kill"})

        from repro.sweep.ledger import SweepLedger

        done = SweepLedger.open(out).completed_ids()
        all_ids = {pid for pid, _ in sweep.expand()}
        assert victim not in done
        assert done == all_ids - {victim}

        resume(out, workers=0)
        assert SweepLedger.open(out).completed_ids() == all_ids
        assert build_report(out).to_json() == serial_report_json

    def test_resume_on_complete_sweep_is_a_no_op(self, tmp_path):
        sweep = SweepSpec(base=sweep_base(), axes={"bits": [32]})
        out = str(tmp_path / "done")
        run(sweep, out, workers=0)
        marker = os.path.join(out, "points")
        stamps = {n: os.stat(os.path.join(marker, n)).st_mtime_ns
                  for n in os.listdir(marker)}
        resume(out, workers=0)
        assert {n: os.stat(os.path.join(marker, n)).st_mtime_ns
                for n in os.listdir(marker)} == stamps


class TestOlderLedger:
    def test_older_ledger_reruns_under_current_ids(self, tmp_path):
        """Ledgers written while sharded export existed carry ``"shards": 0``
        in the base spec, and every point id hashed that key.  Such a sweep
        reopens, resume re-runs its points under the current ids, and the
        report reads only those."""
        from repro.pipeline import PipelineSpec
        from repro.sweep.ledger import SweepLedger

        def older_id(spec):
            blob = json.dumps({**spec.to_manifest(), "shards": 0},
                              sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode()).hexdigest()[:12]

        assert older_id(PipelineSpec(dataset="movielens")) == "05762bcce9c9"
        sweep = SweepSpec(base=sweep_base(), axes={"bits": [32]})
        out = str(tmp_path / "older")
        run(sweep, out, workers=0)
        ((pid, point),) = sweep.expand()
        stale = older_id(point)
        assert stale != pid
        points = os.path.join(out, "points")
        os.rename(os.path.join(points, f"{pid}.json"),
                  os.path.join(points, f"{stale}.json"))
        marker = os.path.join(out, "sweep.json")
        with open(marker) as fh:
            manifest = json.load(fh)
        manifest["base"]["shards"] = 0
        with open(marker, "w") as fh:
            json.dump(manifest, fh)

        assert SweepLedger.open(out).spec == sweep
        with pytest.raises(SweepIncompleteError):
            build_report(out)
        assert list(resume(out, workers=0)) == [pid]
        assert SweepLedger.open(out).completed_ids() == {pid, stale}
        assert [row["point_id"] for row in build_report(out).rows] == [pid]

    def test_resume_counts_each_current_point_once(self, tmp_path):
        """A record no current point owns stays on disk but is not
        returned: resuming counts the sweep's own points, each once."""
        sweep = SweepSpec(base=sweep_base(), axes={"bits": [32]})
        out = str(tmp_path / "stale")
        records = run(sweep, out, workers=0)
        ((pid, _),) = sweep.expand()
        assert list(records) == [pid]
        points = os.path.join(out, "points")
        with open(os.path.join(points, f"{pid}.json")) as fh:
            record = json.load(fh)
        with open(os.path.join(points, "0123456789ab.json"), "w") as fh:
            json.dump(record, fh)
        assert resume(out, workers=0) == records


class TestGuardRails:
    def test_run_refuses_existing_sweep_dir(self, tmp_path):
        sweep = SweepSpec(base=sweep_base(), axes={"bits": [32]})
        out = str(tmp_path / "s")
        run(sweep, out, workers=0)
        with pytest.raises(SweepError, match="already holds a sweep"):
            run(sweep, out, workers=0)

    def test_fail_points_requires_workers(self, tmp_path):
        with pytest.raises(SweepError, match="worker processes"):
            run(
                SweepSpec(base=sweep_base()),
                str(tmp_path / "s"),
                workers=0,
                fail_points={"x": "kill"},
            )

    def test_negative_workers(self, tmp_path):
        with pytest.raises(SweepError, match="workers"):
            run(SweepSpec(base=sweep_base()), str(tmp_path / "s"), workers=-1)


class TestSharedCache:
    def test_grid_materializes_each_dataset_once(self, tmp_path):
        out = str(tmp_path / "s")
        run(_sweep(), out, workers=0)
        cached = os.listdir(os.path.join(out, "datasets"))
        # Four model-side points, one (dataset, pairwise, seed) recipe.
        assert len([n for n in cached if n.endswith(".npz")]) == 1
