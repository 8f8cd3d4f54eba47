"""Figure 4 (A.2) — accuracy vs. weight precision.

Trains one MEmCom model per dataset, quantizes to 16/8/4/2 bits (CoreML
``linear`` mode equivalent) and re-evaluates, then scores the same model
through the int8 and int4 serving engines.  Paper shape: fp16 lossless,
int8 ≈0.1% loss, cliff below 8 bits.
"""

from conftest import run_once

from repro.experiments import fig4_quantization


def test_fig4_quantization(benchmark, bench_config):
    points = run_once(benchmark, lambda: fig4_quantization.run(bench_config))
    print()
    print(fig4_quantization.render(points))
    for name in sorted({p.dataset for p in points}):
        for served, key in ((False, "loss_pct_by_bits"), (True, "served_loss_pct_by_bits")):
            per = {p.bits: p.relative_loss_pct for p in points
                   if p.dataset == name and p.served == served}
            benchmark.extra_info[f"{name}_{key}"] = {
                b: round(v, 2) for b, v in sorted(per.items(), reverse=True)
            }
    # fp16 must be (near-)lossless on every dataset — the paper's headline.
    fp16 = [abs(p.relative_loss_pct) for p in points if p.bits == 16]
    assert max(fp16) < 2.0
