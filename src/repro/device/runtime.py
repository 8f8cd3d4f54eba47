"""High-level on-device benchmark driver (the Table 3 loop).

``DeviceRuntime`` ties together export, profiles and the cost model, and
adds the measurement conventions of §5.3: batch size 1, FP32 weights,
averages over many runs (the analytic model is deterministic, but
``runs`` is kept in the API for fidelity and for the additive jitter mode
used in examples), initialization/compilation excluded.
"""

from __future__ import annotations

import numpy as np

from repro.device.cost_model import InferenceReport, benchmark
from repro.device.export import ExportedModel, export_model
from repro.device.profiles import DEVICES, DeviceProfile
from repro.utils.rng import ensure_rng

__all__ = ["DeviceRuntime", "benchmark_on_all_devices"]


class DeviceRuntime:
    """Simulated runtime for one (device, framework) profile."""

    def __init__(self, profile: DeviceProfile | str) -> None:
        if isinstance(profile, str):
            try:
                profile = DEVICES[profile]
            except KeyError:
                raise KeyError(
                    f"unknown device {profile!r}; available: {', '.join(DEVICES)}"
                ) from None
        self.profile = profile

    def compute_units(self) -> list[str]:
        return list(self.profile.units)

    def benchmark(
        self,
        model,
        compute_unit: str,
        batch_size: int = 1,
        runs: int = 1000,
        jitter: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> InferenceReport:
        """Benchmark a model (paper Module or already-exported IR).

        ``jitter`` > 0 adds multiplicative measurement noise per simulated
        run and reports the mean over ``runs`` — matching the paper's
        "average values across 1000 benchmark runs" protocol.
        """
        if runs <= 0:
            raise ValueError("runs must be positive")
        exported = model if isinstance(model, ExportedModel) else export_model(model, batch_size)
        report = benchmark(exported, self.profile, compute_unit)
        if jitter > 0.0:
            noise = ensure_rng(rng).normal(1.0, jitter, size=runs).clip(min=0.5)
            latency = float(report.latency_ms * noise.mean())
            report = InferenceReport(
                model=report.model,
                device=report.device,
                framework=report.framework,
                compute_unit=report.compute_unit,
                latency_ms=latency,
                footprint_mb=report.footprint_mb,
                on_disk_mb=report.on_disk_mb,
            )
        return report


def benchmark_on_all_devices(model, batch_size: int = 1) -> list[InferenceReport]:
    """Run every (device, supported compute unit) combination of Table 3.

    TF-Lite GPU is skipped exactly as in the paper (unsupported
    ``reduce_sum``); all other units report.
    """
    from repro.device.profiles import UnsupportedOpError

    exported = model if isinstance(model, ExportedModel) else export_model(model, batch_size)
    reports: list[InferenceReport] = []
    for profile in DEVICES.values():
        runtime = DeviceRuntime(profile)
        for unit in runtime.compute_units():
            try:
                reports.append(runtime.benchmark(exported, unit))
            except UnsupportedOpError:
                continue
    return reports
