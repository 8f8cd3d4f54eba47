"""The chaos matrix from the issue's acceptance bar: every fault class ×
technique × width must recover inside the retry budget with predictions
bit-identical to a fault-free run (``ChaosReport.ok`` checks both the
bit-identity and the per-scenario fault evidence)."""

import pytest

from repro.serve.runtime import CHAOS_SCENARIOS, run_chaos

from .conftest import FAST_RETRY, OVERSIZE_ROWS

#: acceptance matrix: {full, memcom, tt_rec} × {32, 8}-ish — 8-bit exercised
#: on the technique whose artifact quantization is the paper's headline
_MODELS = [("full", 32), ("memcom", 32), ("memcom", 8), ("tt_rec", 32)]


def _run(artifact_for, scenario, technique, bits, batch_size=12):
    report = run_chaos(
        artifact_for(technique, bits),
        scenario,
        workers=2,
        num_requests=4 * batch_size,
        batch_size=batch_size,
        retry=FAST_RETRY,
        bits=None,  # the artifact is already stored at the target width
    )
    assert report.ok, (report.summary(), report.evidence, report.stats)
    return report


class TestChaosMatrix:
    # The oversize batch's frames outgrow the pipe buffer, so every send
    # waits on the replica reading; after a kill, on one still loading.
    @pytest.mark.parametrize("batch_size", [12, OVERSIZE_ROWS])
    @pytest.mark.parametrize("technique,bits", _MODELS)
    @pytest.mark.parametrize("scenario", ["kill", "delay", "corrupt-artifact"])
    def test_recovers_bit_identical(
        self, artifact_for, scenario, technique, bits, batch_size
    ):
        _run(artifact_for, scenario, technique, bits, batch_size)

    def test_corrupt_payload_is_caught_by_checksum(self, artifact_for):
        report = _run(artifact_for, "corrupt", "memcom", 32)
        assert report.stats["corrupt_payloads"] >= 1
        assert report.stats["respawns"] == 0  # process was healthy; retry only

    def test_dropped_reply_is_timed_out_and_retried(self, artifact_for):
        report = _run(artifact_for, "drop", "memcom", 32)
        assert report.stats["timeouts"] >= 1

    def test_kill_reports_recovery_latency(self, artifact_for):
        report = _run(artifact_for, "kill", "memcom", 32)
        assert report.stats["respawns"] >= 1
        assert report.stats["recovery_latency_ms"] > 0.0


class TestScenarioRegistry:
    def test_registry_matches_cli_choices(self):
        assert set(CHAOS_SCENARIOS) == {
            "kill", "delay", "drop", "corrupt", "corrupt-artifact"
        }

    def test_unknown_scenario_raises(self, artifact_for):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_chaos(artifact_for(), "meteor-strike")
