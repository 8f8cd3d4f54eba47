"""Command-line interface: regenerate any paper artifact from the shell.

::

    python -m repro list                     # experiments, datasets, techniques
    python -m repro run fig2 --scale 1.0     # regenerate a figure/table
    python -m repro dataset movielens        # show a (scaled) dataset spec
    python -m repro train movielens memcom --hash-fraction 16

Every experiment harness in :mod:`repro.experiments` exposes
``run(config) -> results`` and ``render(results) -> str``; the CLI is a thin
argparse layer over those plus the dataset registry.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import replace

from repro.core.registry import (
    available_techniques,
    build_embedding,
    default_hyper as _default_hyper,
    technique_spec,
)
from repro.data.datasets import DATASETS, get_spec
from repro.experiments import EXPERIMENTS, ExperimentConfig
from repro.utils.logging import set_verbose
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Learning Compressed Embeddings for On-Device "
        "Inference' (MEmCom, MLSys 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments, datasets and techniques")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate one paper table/figure")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    p_run.add_argument("--scale", type=float, default=1.0, help="dataset scale multiplier")
    p_run.add_argument("--epochs", type=int, default=None, help="override training epochs")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--quiet", action="store_true", help="suppress progress logging")
    p_run.set_defaults(func=_cmd_run)

    p_ds = sub.add_parser("dataset", help="show a dataset spec at a given scale")
    p_ds.add_argument("name", choices=sorted(DATASETS))
    p_ds.add_argument("--scale", type=float, default=1.0)
    p_ds.set_defaults(func=_cmd_dataset)

    p_train = sub.add_parser("train", help="train one (dataset, technique) model")
    p_train.add_argument("dataset", choices=sorted(DATASETS))
    p_train.add_argument("technique", choices=available_techniques())
    p_train.add_argument("--scale", type=float, default=1.0, help="bench-scale multiplier")
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--embedding-dim", type=int, default=32)
    p_train.add_argument(
        "--hash-fraction",
        type=int,
        default=16,
        help="hash/keep size = vocab / fraction (hash-family techniques)",
    )
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--save-artifact", default=None, metavar="PATH",
        help="after training: export the model as a serving artifact at PATH "
        "and reload-verify it (train → export → verify in one command)",
    )
    p_train.add_argument(
        "--bits", type=int, choices=(32, 8, 4), default=32,
        help="storage width of --save-artifact",
    )
    p_train.set_defaults(func=_cmd_train)

    p_pipe = sub.add_parser(
        "pipeline",
        help="the declarative train pipeline: run / resume / export "
        "(dataset spec → trained model → resumable checkpoint → serving artifact)",
    )
    pipe_sub = p_pipe.add_subparsers(dest="pipeline_command", required=True)

    pp_run = pipe_sub.add_parser(
        "run", help="train a pipeline, optionally checkpointing every epoch"
    )
    pp_run.add_argument("--dataset", choices=sorted(DATASETS), default="movielens")
    pp_run.add_argument("--technique", choices=available_techniques(), default="memcom")
    pp_run.add_argument(
        "--architecture", choices=["auto", "classifier", "pointwise", "ranknet"],
        default="auto",
    )
    pp_run.add_argument("--scale", type=float, default=1.0, help="bench-scale multiplier")
    pp_run.add_argument("--epochs", type=int, default=5)
    pp_run.add_argument("--batch-size", type=int, default=128)
    pp_run.add_argument("--lr", type=float, default=2e-3)
    pp_run.add_argument(
        "--optimizer", choices=["adam", "sgd", "adagrad", "rmsprop"], default="adam"
    )
    pp_run.add_argument("--embedding-dim", type=int, default=32)
    pp_run.add_argument("--hash-fraction", type=int, default=16)
    pp_run.add_argument("--seed", type=int, default=0)
    pp_run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a resumable checkpoint artifact here during training",
    )
    pp_run.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N epochs (the final epoch always checkpoints)",
    )
    pp_run.add_argument(
        "--stop-after-epoch", type=int, default=None, metavar="K",
        help="interrupt after K epochs without finishing (simulated kill; "
        "resume from the checkpoint to continue)",
    )
    pp_run.add_argument(
        "--export", default=None, metavar="PATH",
        help="after training: export a serving artifact and verify it "
        "serves bit-identically to the in-memory session",
    )
    pp_run.add_argument("--bits", type=int, choices=(32, 8, 4), default=32)
    pp_run.set_defaults(func=_cmd_pipeline_run)

    pp_resume = pipe_sub.add_parser(
        "resume", help="continue a checkpointed run (bit-identical to uninterrupted)"
    )
    pp_resume.add_argument("checkpoint", help="checkpoint artifact path")
    pp_resume.add_argument(
        "--export", default=None, metavar="PATH",
        help="after finishing: export + verify a serving artifact",
    )
    pp_resume.add_argument("--bits", type=int, choices=(32, 8, 4), default=32)
    pp_resume.set_defaults(func=_cmd_pipeline_resume)

    pp_export = pipe_sub.add_parser(
        "export", help="export a checkpoint's model as a serving artifact (no training)"
    )
    pp_export.add_argument("checkpoint", help="checkpoint artifact path")
    pp_export.add_argument("out", help="serving artifact path (dir or *.zip)")
    pp_export.add_argument("--bits", type=int, choices=(32, 8, 4), default=32)
    pp_export.add_argument("--percentile", type=float, default=None)
    pp_export.set_defaults(func=_cmd_pipeline_export)

    p_sweep = sub.add_parser(
        "sweep",
        help="grid sweeps as a worker fleet: run / resume / report "
        "(shared dataset cache, crash-safe ledger, accuracy-per-byte winner)",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    ps_run = sweep_sub.add_parser(
        "run", help="start a sweep: fan the grid out across worker processes"
    )
    ps_run.add_argument("out", help="sweep directory (ledger + artifacts; must be fresh)")
    ps_run.add_argument("--dataset", choices=sorted(DATASETS), default="movielens")
    ps_run.add_argument(
        "--techniques", default="memcom,hash",
        help="comma-separated technique list (default: memcom,hash)",
    )
    ps_run.add_argument(
        "--fractions", default="16",
        help="comma-separated hash fractions; each technique sweeps "
        "hash/keep size = vocab / fraction (default: 16)",
    )
    ps_run.add_argument(
        "--bits", default="32",
        help="comma-separated export widths from {32,8,4} (default: 32)",
    )
    ps_run.add_argument(
        "--budget-kb", type=float, default=None, metavar="KB",
        help="on-device byte budget the report's winner must fit (KiB)",
    )
    ps_run.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = serial in-process)")
    ps_run.add_argument("--scale", type=float, default=1.0, help="bench-scale multiplier")
    ps_run.add_argument("--epochs", type=int, default=4)
    ps_run.add_argument("--batch-size", type=int, default=128)
    ps_run.add_argument("--lr", type=float, default=2e-3)
    ps_run.add_argument("--embedding-dim", type=int, default=32)
    ps_run.add_argument("--seed", type=int, default=0)
    ps_run.add_argument(
        "--distill", action="store_true",
        help="train every point as a student of a shared full-table teacher "
        "(the teacher trains once, in the parent, before fan-out)",
    )
    ps_run.add_argument("--distill-alpha", type=float, default=0.5,
                        help="soft-target blend weight (with --distill)")
    ps_run.add_argument("--distill-temperature", type=float, default=2.0,
                        help="distillation temperature (with --distill)")
    ps_run.set_defaults(func=_cmd_sweep_run)

    ps_resume = sweep_sub.add_parser(
        "resume", help="complete an interrupted sweep (only unfinished points re-run)"
    )
    ps_resume.add_argument("out", help="sweep directory of the interrupted run")
    ps_resume.add_argument("--workers", type=int, default=2,
                          help="worker processes (0 = serial in-process)")
    ps_resume.set_defaults(func=_cmd_sweep_resume)

    ps_report = sweep_sub.add_parser(
        "report", help="rank a completed sweep by metric-per-byte; name the winner"
    )
    ps_report.add_argument("out", help="sweep directory")
    ps_report.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the deterministic report JSON here",
    )
    ps_report.add_argument(
        "--export-winner", default=None, metavar="PATH",
        help="copy the budget winner's serving artifact to PATH "
        "(exit 1 when nothing fits the budget)",
    )
    ps_report.set_defaults(func=_cmd_sweep_report)

    p_art = sub.add_parser(
        "artifact",
        help="inspect on-disk artifacts: format, payload/alias table, "
        "delta provenance, checkpoint",
    )
    art_sub = p_art.add_subparsers(dest="artifact_command", required=True)
    pa_inspect = art_sub.add_parser(
        "inspect", help="print an artifact's manifest: payloads, aliases, "
        "delta chain, checkpoint — without loading any table"
    )
    pa_inspect.add_argument("path", help="artifact path (dir or *.zip)")
    pa_inspect.set_defaults(func=_cmd_artifact_inspect)

    p_export = sub.add_parser(
        "export-artifact",
        help="export a model as a versioned on-disk serving artifact "
        "(manifest.json + binary payloads; directory or .zip)",
    )
    p_export.add_argument("out", help="artifact path (directory, or *.zip for one file)")
    p_export.add_argument(
        "--technique", choices=available_techniques(), default="memcom",
        help="embedding technique of the exported model",
    )
    p_export.add_argument(
        "--architecture", choices=["pointwise", "classifier", "ranknet"],
        default="pointwise",
    )
    p_export.add_argument("--vocab", type=int, default=50_000)
    p_export.add_argument("--embedding-dim", type=int, default=64)
    p_export.add_argument("--input-length", type=int, default=32)
    p_export.add_argument("--num-items", type=int, default=100, help="output catalog/label size")
    p_export.add_argument(
        "--hash-fraction", type=int, default=16,
        help="hash/keep size = vocab / fraction (hash-family techniques)",
    )
    p_export.add_argument(
        "--bits", type=int, choices=(32, 8, 4), default=32,
        help="storage width: 32 stores FP32 state, 8/4 store real "
        "QuantizedTable codes + scales",
    )
    p_export.add_argument(
        "--percentile", type=float, default=None,
        help="outlier-clipped calibration percentile for quantized export",
    )
    p_export.add_argument("--seed", type=int, default=0)
    p_export.set_defaults(func=_cmd_export_artifact)

    p_traffic = sub.add_parser(
        "traffic-bench",
        help="replay drifting million-user session traffic through the "
        "serving stack and report p50/p95/p99 latency, requests/sec and "
        "cache hit rate per drift phase, with SLO assertions and an "
        "optional perf-trajectory gate against BENCH_traffic.json",
    )
    p_traffic.add_argument(
        "--smoke", action="store_true",
        help="quarter-duration phases (same per-step workload shape, so "
        "percentiles stay comparable to a full run)",
    )
    p_traffic.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the scenario-grid results as a BENCH_traffic.json document",
    )
    p_traffic.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="gate the fresh run against this recorded document "
        "(exit 1 on regressions beyond --tolerance)",
    )
    p_traffic.add_argument(
        "--tolerance", type=float, default=None,
        help="max fractional p99 rise / req/s drop vs --baseline (default 0.15)",
    )
    p_traffic.add_argument(
        "--max-p99-ms", type=float, default=None,
        help="override the default SLO tail-latency bound (500 ms)",
    )
    p_traffic.add_argument(
        "--min-hit-rate", type=float, default=None,
        help="additionally require this cache hit rate (default: unchecked)",
    )
    p_traffic.add_argument("--seed", type=int, default=None,
                           help="reseed the pinned traffic stream")
    p_traffic.set_defaults(func=_cmd_traffic_bench)

    p_serve = sub.add_parser(
        "serve-bench",
        help="measure batched serving throughput (requests/sec) under Zipf traffic",
    )
    p_serve.add_argument(
        "--technique", choices=available_techniques(), default="memcom",
        help="embedding technique of the served model",
    )
    p_serve.add_argument("--vocab", type=int, default=50_000)
    p_serve.add_argument("--embedding-dim", type=int, default=64)
    p_serve.add_argument("--input-length", type=int, default=32)
    p_serve.add_argument("--num-items", type=int, default=100, help="output catalog size")
    p_serve.add_argument(
        "--hash-fraction", type=int, default=16,
        help="hash/keep size = vocab / fraction (hash-family techniques)",
    )
    p_serve.add_argument("--requests", type=int, default=4096)
    p_serve.add_argument("--batch-size", type=int, default=64)
    p_serve.add_argument(
        "--cache-rows", type=int, default=4096,
        help="LRU hot-row cache capacity (composed embedding rows) of the "
        "+cache rows; an engine whose rows cost less than a cache hit "
        "declines it and the reason prints under the table; 0 disables it",
    )
    p_serve.add_argument(
        "--cache-min-count", type=int, default=1,
        help="cache admission: insert an id only after this many missed attempts",
    )
    p_serve.add_argument(
        "--cache-ttl-batches", type=int, default=None,
        help="decay the admission counters by half every N batches so stale "
        "popularity can't permanently grease admission (default: no decay)",
    )
    p_serve.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="serve an exported artifact (repro export-artifact) instead of "
        "building a model; traffic shape comes from its manifest",
    )
    p_serve.add_argument(
        "--bits", type=int, choices=(32, 8, 4), default=32,
        help="also serve the repro.quant integer-storage plan at this width "
        "(quantized tables, rows composed in FP32) alongside the FP32 engines; "
        "with --artifact, 8/4 quantize an FP32 artifact on load (32 = the "
        "artifact's native width)",
    )
    p_serve.add_argument("--alpha", type=float, default=1.1, help="Zipf exponent of the traffic")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="also bench the fault-tolerant multi-process runtime with this "
        "many supervised replica workers (requires --artifact — the workers' "
        "respawn source; 0 = single-process only)",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="clamp the workload to a few batches — a seconds-cheap "
        "does-it-serve check (CI gates sweep winners with this)",
    )
    p_serve.add_argument(
        "--chaos", default=None,
        choices=["kill", "delay", "drop", "corrupt", "corrupt-artifact", "all"],
        help="fault-injection mode: serve a fixed workload with this fault "
        "armed and verify predictions stay bit-identical to the fault-free "
        "run while recovery counters move (exit 1 on any failure); builds a "
        "temporary artifact when --artifact is omitted",
    )
    p_serve.set_defaults(func=_cmd_serve_bench)

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print(format_table(
        ["experiment", "paper artifact"],
        [(name, mod.__doc__.strip().splitlines()[0]) for name, mod in EXPERIMENTS.items()],
        title="experiments (python -m repro run <id>)",
    ))
    print()
    print(format_table(
        ["dataset", "task", "input vocab", "output vocab", "train examples"],
        [
            (s.name, s.task, s.input_vocab, s.output_vocab, s.num_train)
            for s in DATASETS.values()
        ],
        title="datasets (Table 2 presets)",
    ))
    print()
    print(format_table(
        ["technique", "summary"],
        [(name, technique_spec(name).summary) for name in available_techniques()],
        title="embedding-compression techniques",
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    set_verbose(not args.quiet)
    overrides = {"scale_multiplier": args.scale, "seed": args.seed}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    config = replace(ExperimentConfig(), **overrides)
    module = EXPERIMENTS[args.experiment]
    start = time.perf_counter()
    # Analytic harnesses (props, table3) take no sweep config.
    first = next(iter(inspect.signature(module.run).parameters.values()), None)
    results = module.run(config) if first is not None and first.name == "config" else module.run()
    elapsed = time.perf_counter() - start
    print()
    print(module.render(results))
    print(f"\n[{args.experiment}] completed in {elapsed:.1f}s")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    spec = get_spec(args.name, args.scale)
    rows = [(field, getattr(spec, field)) for field in (
        "name", "task", "num_train", "num_eval", "input_vocab", "output_vocab",
        "input_length", "input_exponent", "output_exponent", "num_genres",
        "num_countries", "examples_per_user", "label_source",
    )]
    print(format_table(["field", "value"], rows, title=f"{args.name} @ scale {args.scale}"))
    return 0


def _validate_train_args(args: argparse.Namespace, command: str) -> str | None:
    """First invalid training argument as a one-line message (None = good).

    Mirrors ``serve-bench``'s fail-fast contract: a bad value dies here,
    before any dataset is generated or table allocated.
    """
    checks = [
        ("--scale", args.scale),
        ("--epochs", args.epochs),
        ("--embedding-dim", args.embedding_dim),
        ("--hash-fraction", args.hash_fraction),
    ]
    if command == "pipeline run":
        checks += [
            ("--batch-size", args.batch_size),
            ("--lr", args.lr),
            ("--checkpoint-every", args.checkpoint_every),
        ]
    for flag, value in checks:
        if value is not None and value <= 0:
            return f"{flag} must be positive, got {value}"
    stop_after = getattr(args, "stop_after_epoch", None)
    if stop_after is not None and stop_after <= 0:
        return f"--stop-after-epoch must be positive, got {stop_after}"
    return None


def _pipeline_spec_from_args(args: argparse.Namespace, architecture: str = "auto"):
    """Build the validated PipelineSpec a train-ish subcommand describes.

    ``--scale`` is a *bench-scale* multiplier (same unit as ``repro run``),
    so the default trains in CPU-seconds; spec validation errors propagate
    as ``ValueError`` for the caller's one-line handler.
    """
    from dataclasses import replace as dc_replace

    from repro.experiments.runner import BENCH_SCALES, ExperimentConfig
    from repro.pipeline import PipelineSpec
    from repro.train.trainer import TrainConfig

    train = TrainConfig(
        epochs=args.epochs,
        batch_size=getattr(args, "batch_size", 128),
        lr=getattr(args, "lr", 2e-3),
        optimizer=getattr(args, "optimizer", "adam"),
        seed=args.seed,
    )
    bench = ExperimentConfig()  # the sweeps' example-count caps, shared
    spec = PipelineSpec(
        dataset=args.dataset,
        architecture=architecture,
        technique=args.technique,
        embedding_dim=args.embedding_dim,
        scale=BENCH_SCALES[args.dataset] * args.scale,
        cap_train=bench.cap_train,
        cap_eval=bench.cap_eval,
        train=train,
        seed=args.seed,
        bits=args.bits,
    )
    hyper = _default_hyper(
        args.technique, spec.data_spec().input_vocab, args.embedding_dim,
        args.hash_fraction,
    )
    return dc_replace(spec, hyper=hyper)


def _export_and_verify(session, path: str, bits: int, percentile: float | None = None) -> int:
    """session → artifact → ServeSession.load → compare predictions.

    The loaded artifact must serve bit-identically to a session frozen
    from the in-memory model at the same width (the PR 4 guarantee, now
    exercised at the end of every pipeline run).
    """
    import numpy as np

    artifact = session.export(path, bits=bits, percentile=percentile)
    print(artifact.describe())
    from repro.serve.session import ServeConfig, ServeSession

    loaded = ServeSession.load(path)
    probe = session.data.x_eval[: min(64, len(session.data.x_eval))]
    session_bits = None if bits == 32 else bits
    direct = ServeSession.from_model(
        session.model,
        ServeConfig(bits=session_bits, calibration_percentile=percentile),
    )
    if not np.array_equal(loaded.predict(probe), direct.predict(probe)):
        print(
            f"repro pipeline: error: artifact at {path!r} does not serve "
            "bit-identically to the in-memory model",
            file=sys.stderr,
        )
        return 1
    width = "fp32" if loaded.bits == 32 else f"int{loaded.bits}"
    print(
        f"verified: ServeSession.load({path!r}) matches the in-memory "
        f"{width} session bit-for-bit on {len(probe)} probe requests"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    # Import lazily: training pulls in the full stack.
    from repro.pipeline import TrainSession

    error = _validate_train_args(args, "train")
    if error is not None:
        print(f"repro train: error: {error}", file=sys.stderr)
        return 2
    set_verbose(True)
    try:
        spec = _pipeline_spec_from_args(args)
        session = TrainSession(spec)
    except (KeyError, ValueError) as exc:
        print(f"repro train: error: {exc}", file=sys.stderr)
        return 2
    session.fit()
    metric = session.evaluate()[session.metric_name]
    print()
    print(format_table(
        ["dataset", "technique", "hyper", "params", session.metric_name],
        [(args.dataset, args.technique, str(spec.hyper),
          session.model.num_parameters(), f"{metric:.4f}")],
    ))
    if args.save_artifact is not None:
        return _export_and_verify(session, args.save_artifact, args.bits)
    return 0


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from repro.pipeline import TrainSession

    error = _validate_train_args(args, "pipeline run")
    if error is not None:
        print(f"repro pipeline run: error: {error}", file=sys.stderr)
        return 2
    if args.stop_after_epoch is not None and args.checkpoint is None:
        print(
            "repro pipeline run: error: --stop-after-epoch without --checkpoint "
            "would lose the run",
            file=sys.stderr,
        )
        return 2
    set_verbose(True)
    try:
        spec = _pipeline_spec_from_args(args, architecture=args.architecture)
        session = TrainSession(spec)
    except (KeyError, ValueError) as exc:
        print(f"repro pipeline run: error: {exc}", file=sys.stderr)
        return 2
    history = session.fit(
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        stop_after_epoch=args.stop_after_epoch,
    )
    state = "interrupted" if not session.finished else "finished"
    print(
        f"\npipeline {state} at epoch {session.state.epoch}/{spec.train.epochs}: "
        f"{history.steps} steps in {history.seconds:.1f}s"
        + (f", checkpoint at {args.checkpoint}" if args.checkpoint else "")
    )
    if session.finished:
        metric = session.evaluate()[session.metric_name]
        print(f"eval {session.metric_name}: {metric:.4f}")
    if args.export is not None:
        return _export_and_verify(session, args.export, args.bits)
    return 0


def _cmd_pipeline_resume(args: argparse.Namespace) -> int:
    from repro.artifact.errors import ArtifactError
    from repro.pipeline import TrainSession

    set_verbose(True)
    try:
        session = TrainSession.resume(args.checkpoint)
    except ArtifactError as exc:
        print(f"repro pipeline resume: error: {exc}", file=sys.stderr)
        return 2
    start = session.state.epoch
    history = session.fit(checkpoint_path=args.checkpoint)
    print(
        f"\nresumed from epoch {start}, finished {session.state.epoch}/"
        f"{session.spec.train.epochs}: {history.steps} total steps"
    )
    metric = session.evaluate()[session.metric_name]
    print(f"eval {session.metric_name}: {metric:.4f}")
    if args.export is not None:
        return _export_and_verify(session, args.export, args.bits)
    return 0


def _cmd_pipeline_export(args: argparse.Namespace) -> int:
    from repro.artifact.errors import ArtifactError
    from repro.pipeline import TrainSession

    if args.percentile is not None and not 0.0 < args.percentile <= 100.0:
        print(
            f"repro pipeline export: error: --percentile must be in (0, 100], "
            f"got {args.percentile}",
            file=sys.stderr,
        )
        return 2
    try:
        session = TrainSession.resume(args.checkpoint)
    except ArtifactError as exc:
        print(f"repro pipeline export: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"loaded checkpoint at epoch {session.state.epoch}/"
        f"{session.spec.train.epochs} ({session.spec.technique} "
        f"{session.architecture})"
    )
    return _export_and_verify(session, args.out, args.bits, percentile=args.percentile)


def _parse_csv(raw: str, kind: str, cast) -> list:
    try:
        values = [cast(v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--{kind} must be a comma-separated list, got {raw!r}") from None
    if not values:
        raise ValueError(f"--{kind} must list at least one value, got {raw!r}")
    return values


def _validate_sweep_run_args(args: argparse.Namespace) -> str | None:
    """First invalid `sweep run` argument as a one-line message (None = good)."""
    for flag, value in (
        ("--scale", args.scale),
        ("--epochs", args.epochs),
        ("--batch-size", args.batch_size),
        ("--lr", args.lr),
        ("--embedding-dim", args.embedding_dim),
        ("--distill-temperature", args.distill_temperature),
    ):
        if value <= 0:
            return f"{flag} must be positive, got {value}"
    if args.workers < 0:
        return f"--workers must be >= 0 (0 = serial), got {args.workers}"
    if args.budget_kb is not None and args.budget_kb <= 0:
        return f"--budget-kb must be positive, got {args.budget_kb}"
    if not 0.0 <= args.distill_alpha <= 1.0:
        return f"--distill-alpha must be in [0, 1], got {args.distill_alpha}"
    try:
        techniques = _parse_csv(args.techniques, "techniques", str)
        fractions = _parse_csv(args.fractions, "fractions", int)
        bits = _parse_csv(args.bits, "bits", int)
    except ValueError as exc:
        return str(exc)
    for tech in techniques:
        if tech not in available_techniques():
            return (
                f"unknown technique {tech!r} in --techniques; "
                f"available: {', '.join(available_techniques())}"
            )
    for fraction in fractions:
        if fraction <= 0:
            return f"--fractions entries must be positive, got {fraction}"
    for b in bits:
        if b not in (32, 8, 4):
            return f"--bits entries must be from {{32, 8, 4}}, got {b}"
    return None


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    error = _validate_sweep_run_args(args)
    if error is not None:
        print(f"repro sweep run: error: {error}", file=sys.stderr)
        return 2
    # Imports after validation: the sweep stack is the full training stack.
    from repro.experiments.runner import BENCH_SCALES, ExperimentConfig
    from repro.pipeline import PipelineSpec
    from repro.sweep import SweepError, SweepIncompleteError, SweepSpec
    from repro.sweep import run as sweep_run
    from repro.train.distill import DistillConfig
    from repro.train.trainer import TrainConfig

    set_verbose(True)
    techniques = _parse_csv(args.techniques, "techniques", str)
    fractions = _parse_csv(args.fractions, "fractions", int)
    bits_axis = _parse_csv(args.bits, "bits", int)
    bench = ExperimentConfig()
    distill = None
    if args.distill:
        distill = DistillConfig(
            temperature=args.distill_temperature, alpha=args.distill_alpha
        )
    try:
        base = PipelineSpec(
            dataset=args.dataset,
            technique=techniques[0],
            embedding_dim=args.embedding_dim,
            scale=BENCH_SCALES[args.dataset] * args.scale,
            cap_train=bench.cap_train,
            cap_eval=bench.cap_eval,
            train=TrainConfig(
                epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                seed=args.seed,
            ),
            distill=distill,
            seed=args.seed,
            monitor=False,
        )
        vocab = base.data_spec().input_vocab
        points = [
            {
                "technique": tech,
                "hyper": _default_hyper(tech, vocab, args.embedding_dim, fraction),
                "bits": b,
            }
            for tech in techniques
            for fraction in fractions
            for b in bits_axis
        ]
        budget = None if args.budget_kb is None else int(args.budget_kb * 1024)
        sweep = SweepSpec(base=base, points=tuple(points), budget_bytes=budget)
    except (KeyError, ValueError, SweepError) as exc:
        print(f"repro sweep run: error: {exc}", file=sys.stderr)
        return 2
    try:
        records = sweep_run(sweep, args.out, workers=args.workers)
    except SweepIncompleteError as exc:
        print(f"repro sweep run: error: {exc}", file=sys.stderr)
        return 1
    except SweepError as exc:
        print(f"repro sweep run: error: {exc}", file=sys.stderr)
        return 2
    print(f"\nsweep complete: {len(records)} points at {args.out}")
    print(f"rank them with: repro sweep report {args.out}")
    return 0


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    from repro.sweep import SweepError, SweepIncompleteError
    from repro.sweep import resume as sweep_resume

    if args.workers < 0:
        print(
            f"repro sweep resume: error: --workers must be >= 0 (0 = serial), "
            f"got {args.workers}",
            file=sys.stderr,
        )
        return 2
    set_verbose(True)
    try:
        records = sweep_resume(args.out, workers=args.workers)
    except SweepIncompleteError as exc:
        print(f"repro sweep resume: error: {exc}", file=sys.stderr)
        return 1
    except SweepError as exc:
        print(f"repro sweep resume: error: {exc}", file=sys.stderr)
        return 2
    print(f"\nsweep complete: {len(records)} points at {args.out}")
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    import os
    import shutil

    from repro.sweep import SweepError, build_report

    try:
        report = build_report(args.out)
    except SweepError as exc:
        print(f"repro sweep report: error: {exc}", file=sys.stderr)
        return 2
    budget = (
        "unconstrained" if report.budget_bytes is None
        else f"{report.budget_bytes:,} bytes"
    )
    rows = [
        (
            "*" if row["point_id"] == report.winner
            else ("" if row["within_budget"] else "x"),
            row["technique"],
            ",".join(f"{k}={v}" for k, v in sorted(row["hyper"].items())) or "-",
            row["bits"],
            f"{row['device_bytes'] / 1024:.1f}",
            f"{row['metric']:.4f}",
            f"{row['metric_per_mib']:.4f}",
        )
        for row in report.rows
    ]
    print(format_table(
        ["", "technique", "hyper", "bits", "KiB", report.metric_name,
         f"{report.metric_name}/MiB"],
        rows,
        title=f"sweep report: {len(report.rows)} points, budget {budget} "
        f"(* winner, x over budget)",
    ))
    if args.json is not None:
        report.save(args.json)
        print(f"wrote {os.path.abspath(args.json)}")
    winner = report.winner_row()
    if winner is None:
        print(
            "repro sweep report: error: no artifact fits the device budget",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nwinner: {winner['technique']} ({winner['device_bytes']:,} device "
        f"bytes, {report.metric_name}={winner['metric']:.4f})"
    )
    if args.export_winner is not None:
        src = os.path.join(args.out, winner["artifact"])
        if os.path.exists(args.export_winner):
            print(
                f"repro sweep report: error: --export-winner target "
                f"{args.export_winner!r} already exists",
                file=sys.stderr,
            )
            return 2
        shutil.copytree(src, args.export_winner)
        print(f"exported winner artifact to {args.export_winner}")
    return 0


def _cmd_artifact_inspect(args: argparse.Namespace) -> int:
    import os as _os

    from repro.artifact.container import (
        _read_raw_manifest,
        _resolve_parent_path,
        _sha256,
        read_manifest,
    )
    from repro.artifact.errors import ArtifactError

    try:
        manifest, manifest_nbytes = read_manifest(args.path)
    except ArtifactError as exc:
        print(f"repro artifact inspect: error: {exc}", file=sys.stderr)
        return 2

    form = "directory" if _os.path.isdir(args.path) else "zip"
    print(f"artifact: {args.path} ({form}, format v{manifest['format_version']})")
    model = manifest.get("model", {})
    print(
        f"model: {model.get('architecture', '?')} · "
        f"{manifest.get('embedding', {}).get('technique', '?')} · "
        f"{'fp32' if manifest.get('bits') == 32 else 'int' + str(manifest.get('bits', '?'))} · "
        f"input_length={model.get('input_length', '?')}"
    )

    payloads = manifest.get("payloads", {})
    rows = []
    logical = stored_payload = 0
    for name, meta in sorted(payloads.items()):
        nbytes = int(meta.get("nbytes", 0))
        logical += nbytes
        source = meta.get("source", "self")
        if source == "parent":
            where = "parent"
        elif source == "rows":
            nrows = meta.get("rows", {}).get("shape", ["?"])[0]
            where = f"rows({nrows})"
            for part in ("rows", "values"):
                sub = meta.get(part, {})
                if not sub.get("zeros") and "alias" not in sub:
                    stored_payload += int(sub.get("nbytes", 0))
        elif meta.get("zeros"):
            where = "zeros (elided)"
        elif "alias" in meta:
            where = f"alias → {meta['alias']}"
        else:
            where = meta.get("file", "?")
            stored_payload += nbytes
        shape = "×".join(str(s) for s in meta.get("shape", []))
        rows.append((name, meta.get("dtype", "?"), shape or "scalar", nbytes, where))

    wname = max((len(r[0]) for r in rows), default=4)
    print(f"payloads: {len(rows)}")
    print(f"  {'name':<{wname}} {'dtype':>6} {'shape':>12} {'nbytes':>10}  stored-as")
    for name, dtype, shape, nbytes, where in rows:
        print(f"  {name:<{wname}} {dtype:>6} {shape:>12} {nbytes:>10,}  {where}")
    stored = stored_payload + manifest_nbytes
    ratio = stored / (logical + manifest_nbytes) if logical else 1.0
    print(
        f"bytes: logical {logical + manifest_nbytes:,} · stored {stored:,} "
        f"(ratio {ratio:.3f})"
    )

    delta = manifest.get("delta")
    if delta is not None:
        print(
            f"delta: depth {delta.get('depth', '?')} · "
            f"{delta.get('payloads_from_parent', 0)} from parent · "
            f"{delta.get('payloads_patched', 0)} row-patched"
        )
        ref, at = delta.get("parent", "?"), args.path
        while ref is not None:
            resolved = _resolve_parent_path(ref, at)
            if resolved is None:
                print(f"  parent {ref!r}: MISSING")
                break
            recorded = delta.get("parent_manifest_sha256")
            try:
                actual = _sha256(_read_raw_manifest(resolved))
                pmanifest, _ = read_manifest(resolved)
            except ArtifactError as exc:
                print(f"  parent {resolved}: UNREADABLE ({exc})")
                break
            verdict = "ok" if actual == recorded else "HASH MISMATCH"
            print(f"  parent {resolved}: manifest sha256 {verdict}")
            delta = pmanifest.get("delta")
            ref, at = (delta.get("parent"), resolved) if delta else (None, at)

    ckpt = manifest.get("checkpoint")
    if ckpt is None:
        print("checkpoint: none (serving-only export)")
    else:
        train_state = ckpt.get("meta", {}).get("train_state", {})
        epoch = train_state.get("epoch", "?")
        print(f"checkpoint: present · epoch {epoch} · {len(ckpt.get('arrays', []))} tensors")
    return 0


def _build_export_model(args: argparse.Namespace):
    """serve-bench / export-artifact share one model recipe."""
    from repro.models.builder import (
        build_classifier,
        build_pointwise_ranker,
        build_ranknet,
    )

    hyper = _default_hyper(
        args.technique, args.vocab, args.embedding_dim, args.hash_fraction
    )
    builder = {
        "pointwise": build_pointwise_ranker,
        "classifier": build_classifier,
        "ranknet": build_ranknet,
    }[getattr(args, "architecture", "pointwise")]
    # Weights are untrained — serving throughput and artifact layout depend
    # on shapes, not values.
    return builder(
        args.technique,
        args.vocab,
        args.num_items,
        input_length=args.input_length,
        embedding_dim=args.embedding_dim,
        rng=args.seed,
        **hyper,
    )


def _pooled_bits_error(args: argparse.Namespace) -> str | None:
    """``--bits 8|4`` needs per-row storage, which a pooled output lacks."""
    if args.bits == 32 or getattr(args, "artifact", None) is not None:
        return None
    # Pooling is structural, so a tiny instance answers for every size.
    tiny = build_embedding(args.technique, 8, 2, **_default_hyper(args.technique, 8, 2, 2))
    if tiny.frozen().pooled:
        return (f"--technique {args.technique} pools its output per request: "
                f"no per-row storage to serve at --bits {args.bits} (use --bits 32)")
    return None


def _validate_serve_args(args: argparse.Namespace) -> str | None:
    """First invalid serving argument, as a one-line message (None = all good).

    serve-bench used to hand bad values straight to engine construction and
    die deep inside cache/quantizer internals; everything is checked here
    before any table is built.
    """
    from repro.serve.session import ServeConfig

    for flag, value in (
        ("--vocab", args.vocab),
        ("--embedding-dim", args.embedding_dim),
        ("--input-length", args.input_length),
        ("--num-items", args.num_items),
        ("--hash-fraction", args.hash_fraction),
        ("--requests", args.requests),
        ("--batch-size", args.batch_size),
    ):
        if value <= 0:
            return f"{flag} must be positive, got {value}"
    if args.alpha <= 0:
        return f"--alpha must be positive, got {args.alpha}"
    if args.cache_rows < 0:
        return f"--cache-rows must be >= 0 (0 disables the cache), got {args.cache_rows}"
    if args.workers < 0:
        return f"--workers must be >= 0 (0 = single-process), got {args.workers}"
    if args.workers > 0 and args.artifact is None and args.chaos is None:
        return (
            "--workers needs --artifact: the artifact is the workers' respawn "
            "source (export one with `repro export-artifact`, or use --chaos "
            "which builds a temporary artifact itself)"
        )
    try:
        ServeConfig(
            bits=args.bits,
            cache_rows=args.cache_rows or None,
            cache_min_count=args.cache_min_count,
            cache_ttl_batches=args.cache_ttl_batches,
            max_batch=args.batch_size,
        ).validate()
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_traffic_bench(args: argparse.Namespace) -> int:
    # Import lazily: the traffic package pulls in the full serving stack.
    from repro.traffic.bench import render_table, run_scenarios, write_report
    from repro.traffic.slo import SLOSpec, SLOViolation

    if args.tolerance is not None and args.tolerance < 0:
        print(
            f"repro traffic-bench: error: --tolerance must be non-negative, "
            f"got {args.tolerance}",
            file=sys.stderr,
        )
        return 2
    if args.min_hit_rate is not None and not 0.0 <= args.min_hit_rate <= 1.0:
        print(
            f"repro traffic-bench: error: --min-hit-rate must be in [0, 1], "
            f"got {args.min_hit_rate}",
            file=sys.stderr,
        )
        return 2
    slo = SLOSpec()
    if args.max_p99_ms is not None:
        slo = replace(slo, max_p99_ms=args.max_p99_ms)
    if args.min_hit_rate is not None:
        slo = replace(slo, min_hit_rate=args.min_hit_rate)

    try:
        doc = run_scenarios(smoke=args.smoke, seed=args.seed, slo=slo)
    except SLOViolation as exc:
        print(f"repro traffic-bench: SLO FAILED: {exc}", file=sys.stderr)
        return 1
    print(render_table(doc))
    print("\nall scenarios met the SLO")
    if args.out:
        import os

        write_report(doc, args.out)
        print(f"wrote {os.path.abspath(args.out)}")
    if args.baseline:
        from repro.traffic.gate import DEFAULT_TOLERANCE, compare, load_report

        tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro traffic-bench: error: {exc}", file=sys.stderr)
            return 2
        result = compare(doc, baseline, tolerance=tolerance)
        print()
        print(result.summary())
        if not result.ok:
            return 1
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # Import lazily: serving pulls in the model stack.
    from dataclasses import replace as dc_replace

    from repro.artifact.errors import ArtifactError
    from repro.serve.session import ServeConfig, ServeSession
    from repro.traffic.model import TrafficModel, TrafficSpec
    from repro.traffic.replay import replay

    error = _validate_serve_args(args) or _pooled_bits_error(args)
    if error is not None:
        print(f"repro serve-bench: error: {error}", file=sys.stderr)
        return 2
    if args.smoke:
        # A handful of batches: enough to exercise load → plan → predict,
        # cheap enough for a per-PR CI gate.  Same shapes, fewer requests.
        args.requests = min(args.requests, 8 * args.batch_size)
    if args.chaos is not None:
        return _cmd_serve_chaos(args)

    def static_zipf(vocab: int, input_length: int) -> TrafficModel:
        # Closed-loop static Zipf is the degenerate TrafficSpec: one-request
        # sessions, no drift, locality or bursts.  Phase 0 is the warm-up
        # (cache fill, allocator pools); phase 1 is the measured window.
        return TrafficModel(TrafficSpec(
            vocab=vocab,
            input_length=input_length,
            alpha=args.alpha,
            num_phases=2,
            steps_per_phase=-(-args.requests // (2 * args.batch_size)),
            drift_fraction=0.0,
            # Unused without drift, but validate() wants head_size < vocab;
            # shrinking it keeps tiny vocabularies servable.
            head_size=max(1, min(TrafficSpec.head_size, vocab - 1)),
            sessions_per_step=float(args.batch_size),
            burst_factor=1.0,
            session_length=1,
            locality=0.0,
            seed=args.seed,
        ))

    base = ServeConfig(
        cache_min_count=args.cache_min_count,
        cache_ttl_batches=args.cache_ttl_batches,
        max_batch=args.batch_size,
    )
    cached_cfg = dc_replace(base, cache_rows=args.cache_rows or None)
    sessions: dict[str, ServeSession] = {}
    try:
        if args.artifact is not None:
            # Serve the exported container itself — the deployment contract.
            # --bits 32 means "the artifact's native width"; 8/4 quantize an
            # FP32 artifact on load (a stored-width conflict is a typed error).
            session_bits = None if args.bits == 32 else args.bits
            try:
                from repro.artifact import load_artifact

                # One disk read + hash verification, shared by every session.
                artifact = load_artifact(args.artifact)
                sessions["artifact"] = ServeSession.load(
                    artifact, dc_replace(base, bits=session_bits)
                )
                sessions["artifact+cache"] = ServeSession.load(
                    artifact, dc_replace(cached_cfg, bits=session_bits)
                )
                if args.workers > 0:
                    # The supervised multi-process plane over the same
                    # artifact (bit-identical predictions; DESIGN.md §10).
                    sessions[f"runtime x{args.workers}w"] = ServeSession.load(
                        artifact,
                        dc_replace(base, bits=session_bits, workers=args.workers),
                    )
            except ArtifactError as exc:
                print(f"repro serve-bench: error: {exc}", file=sys.stderr)
                return 2
            engine = sessions["artifact"].engine
            vocab, input_length = engine.vocab_size, engine.input_length
            title = (
                f"serve-bench: artifact {args.artifact} ({engine.model_name}, "
                f"int{engine.bits}), v={vocab}, L={input_length}, Zipf({args.alpha})"
            )
        else:
            vocab, input_length = args.vocab, args.input_length
            title = (
                f"serve-bench: {args.technique} "
                f"{getattr(args, 'architecture', 'pointwise')}, v={vocab}, "
                f"e={args.embedding_dim}, L={input_length}, Zipf({args.alpha})"
            )
        try:
            traffic = static_zipf(vocab, input_length)
        except ValueError as exc:
            print(f"repro serve-bench: error: {exc}", file=sys.stderr)
            return 2
        if args.artifact is None:
            def build():
                return _build_export_model(args)

            sessions["monolithic"] = ServeSession.from_model(build(), base)
            sessions["monolithic+cache"] = ServeSession.from_model(build(), cached_cfg)
            if args.bits != 32:
                # The repro.quant integer-storage plan: quantized tables served
                # via fused gather→dequant, rows composed in FP32 (DESIGN.md §7).
                label = f"int{args.bits}"
                sessions[label] = ServeSession.from_model(
                    build(), dc_replace(base, bits=args.bits)
                )
                sessions[f"{label}+cache"] = ServeSession.from_model(
                    build(), dc_replace(cached_cfg, bits=args.bits)
                )

        reports = {label: replay(s, traffic) for label, s in sessions.items()}
        print(format_table(
            ["engine", "requests", "p50 ms", "p95 ms", "p99 ms", "req/s",
             "cache hit", "checksum"],
            [
                # row()[3:] is phase 1's formatted p50, p95, p99, req/s, hit
                (label, r.phases[1].requests, *r.phases[1].row()[3:],
                 r.checksum[:16])
                for label, r in reports.items()
            ],
            title=title,
        ))
        for label, session in sessions.items():
            if session.engine.cache_declined is not None:
                print(f"{label}: cache declined: {session.engine.cache_declined}")
        if args.artifact is None and args.bits != 32:
            fp32_bytes = sessions["monolithic"].engine.table_resident_bytes()
            q_bytes = sessions[f"int{args.bits}"].engine.table_resident_bytes()
            print(
                f"int{args.bits} table-resident bytes: {q_bytes:,} "
                f"({q_bytes / fp32_bytes:.2f}× FP32's {fp32_bytes:,})"
            )
        # Every row served the same stream, so rows of one storage width
        # must have produced byte-identical predictions.
        reference: dict[int, str] = {}
        for label, report in reports.items():
            ref = reference.setdefault(sessions[label].bits, label)
            if report.checksum != reports[ref].checksum:
                print(
                    f"repro serve-bench: error: row {label!r} served different "
                    f"predictions than {ref!r} (checksum "
                    f"{report.checksum[:16]} != {reports[ref].checksum[:16]})",
                    file=sys.stderr,
                )
                return 1
        print(f"checksums agree across rows of each width ({len(reports)} rows)")
    finally:
        for session in sessions.values():
            session.close()
    return 0


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    """`repro serve-bench --chaos`: induce faults, demand identical answers."""
    import os
    import shutil
    import tempfile

    from repro.artifact.errors import ArtifactError
    from repro.serve.runtime import CHAOS_SCENARIOS, run_chaos

    workers = args.workers or 2
    scenarios = sorted(CHAOS_SCENARIOS) if args.chaos == "all" else [args.chaos]
    bits = None if args.bits == 32 else args.bits
    # Chaos verification double-serves every request (fault-free baseline +
    # faulted runtime); cap the workload so `--chaos` stays seconds-cheap
    # at serve-bench's throughput-sized default --requests.
    num_requests = min(args.requests, 16 * args.batch_size)

    tmp_dir = None
    path = args.artifact
    try:
        if path is None:
            # No artifact given: export the same recipe serve-bench would
            # serve — the runtime needs a durable (re)spawn source on disk.
            from repro.artifact import save_artifact

            tmp_dir = tempfile.mkdtemp(prefix="repro-chaos-")
            path = save_artifact(
                _build_export_model(args),
                os.path.join(tmp_dir, "artifact"),
                bits=args.bits,
                percentile=None,
            ).path
            bits = None  # already stored at the requested width
        print(
            f"chaos: artifact={path}, workers={workers}, "
            f"requests={num_requests} x L, scenarios={', '.join(scenarios)}"
        )
        failures = 0
        for scenario in scenarios:
            try:
                report = run_chaos(
                    path,
                    scenario,
                    workers=workers,
                    num_requests=num_requests,
                    batch_size=args.batch_size,
                    bits=bits,
                    alpha=args.alpha,
                    seed=args.seed,
                )
            except ArtifactError as exc:
                print(f"repro serve-bench: error: {exc}", file=sys.stderr)
                return 2
            print(report.summary())
            failures += 0 if report.ok else 1
        if failures:
            print(
                f"chaos: {failures}/{len(scenarios)} scenario(s) FAILED",
                file=sys.stderr,
            )
            return 1
        print(
            f"chaos: all {len(scenarios)} scenario(s) recovered with "
            "bit-identical predictions"
        )
        return 0
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)


def _cmd_export_artifact(args: argparse.Namespace) -> int:
    # Import lazily: export pulls in the model + quant stack.
    from repro.artifact import save_artifact
    from repro.serve.session import ServeSession

    for flag, value in (
        ("--vocab", args.vocab),
        ("--embedding-dim", args.embedding_dim),
        ("--input-length", args.input_length),
        ("--num-items", args.num_items),
        ("--hash-fraction", args.hash_fraction),
    ):
        if value <= 0:
            print(
                f"repro export-artifact: error: {flag} must be positive, got {value}",
                file=sys.stderr,
            )
            return 2
    if args.percentile is not None and not 0.0 < args.percentile <= 100.0:
        print(
            f"repro export-artifact: error: --percentile must be in (0, 100], "
            f"got {args.percentile}",
            file=sys.stderr,
        )
        return 2
    error = _pooled_bits_error(args)
    if error is not None:
        print(f"repro export-artifact: error: {error}", file=sys.stderr)
        return 2
    model = _build_export_model(args)
    artifact = save_artifact(model, args.out, bits=args.bits, percentile=args.percentile)
    print(artifact.describe())
    # Reopen through the session front door: verifies every payload hash and
    # rebuilds the serving plan, so a bad export dies here, not on-device.
    session = ServeSession.load(args.out)
    print(
        f"verified: reload OK — int{session.bits} serving plan, "
        f"{artifact.payload_bytes():,} payload bytes "
        f"(+{artifact.total_bytes() - artifact.payload_bytes():,} manifest)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
