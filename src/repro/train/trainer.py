"""The mini-batch training loop for the paper's three model families.

One :class:`Trainer` covers all three tasks behind a single task-dispatched
:meth:`Trainer.fit` — classification (§5.1) and pointwise ranking (§5.2)
train with softmax cross-entropy, the pairwise RankNet loop (Figure 3)
trains with the pairwise logistic loss — and every task shares the same
``_loop``: optimizer construction, LR schedules, early stopping, callbacks,
and the gradient-treatment hook differentially-private training overrides
(:mod:`repro.train.dp`).

Embedding-table gradients flow through this loop row-sparse end-to-end
(lookup backward → ``clip_global_norm`` → optimizer sparse apply; see
DESIGN.md §5), so per-step cost scales with the batch, not the vocabulary —
``benchmarks/bench_train_throughput.py`` measures the win.

Resumable training
------------------
The loop's entire mutable context lives in a :class:`TrainState` — the
optimizer (with its slots), the LR scheduler, the data-order RNG, the
running :class:`History`, and the early-stopping bookkeeping.  ``fit``
creates one when none is given, advances it epoch by epoch, and hands it to
``epoch_hook`` after every epoch so a caller (``repro.pipeline``'s
checkpointing) can persist it.  Re-entering ``fit`` with a restored state
continues the run bit-identically to one that was never interrupted
(DESIGN.md §9, ``tests/pipeline/test_checkpoint.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.loader import iterate_batches
from repro.metrics.evaluator import evaluate_classification, evaluate_ranking
from repro.nn.layers import Module
from repro.nn.losses import distillation_loss, ranknet_loss, softmax_cross_entropy
from repro.nn.optim import SGD, Adagrad, Adam, Optimizer, RMSProp, clip_global_norm
from repro.nn.schedulers import Scheduler, build_scheduler
from repro.nn.sparse_grad import SparseRowGrad
from repro.utils.logging import log
from repro.utils.rng import ensure_rng

__all__ = ["TrainConfig", "History", "TrainState", "Trainer", "clip_finite"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every experiment sweep."""

    epochs: int = 5
    batch_size: int = 128
    lr: float = 1e-3
    optimizer: str = "adam"  # adam | sgd | adagrad | rmsprop
    momentum: float = 0.9  # used by sgd
    shuffle: bool = True
    #: drop trailing partial batches — keeps BatchNorm statistics sane
    drop_last: bool = True
    #: stop after this many epochs without val-metric improvement (None = off)
    early_stopping_patience: int | None = None
    #: cap batches per epoch — lets sweeps subsample huge datasets
    max_batches_per_epoch: int | None = None
    #: per-epoch LR schedule:
    #: constant | cosine | step | exponential | plateau | row_warmup
    lr_schedule: str = "constant"
    #: row_warmup's target: cumulative optimizer-touched rows that end the
    #: warmup (required by, and only valid with, ``lr_schedule="row_warmup"``)
    warmup_rows: int | None = None
    #: clip the global gradient norm each step (None = off)
    grad_clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.optimizer not in ("adam", "sgd", "adagrad", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.early_stopping_patience is not None and self.early_stopping_patience <= 0:
            raise ValueError("early_stopping_patience must be positive or None")
        if self.lr_schedule not in (
            "constant", "cosine", "step", "exponential", "plateau", "row_warmup"
        ):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.lr_schedule == "row_warmup":
            if self.warmup_rows is None or self.warmup_rows <= 0:
                raise ValueError("lr_schedule 'row_warmup' requires a positive warmup_rows")
        elif self.warmup_rows is not None:
            raise ValueError("warmup_rows is only valid with lr_schedule 'row_warmup'")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive or None")


@dataclass
class History:
    """Per-epoch training record returned by the trainer.

    ``steps`` counts optimizer steps and ``seconds`` accumulates wall-clock
    training time (epoch loops only, not validation) — together they give
    the wall-clock-per-step trajectory the throughput bench records.
    """

    train_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    metric_name: str = ""
    best_epoch: int = -1
    steps: int = 0
    seconds: float = 0.0

    @property
    def best_metric(self) -> float:
        if not self.val_metric:
            raise ValueError("no validation metric recorded")
        return max(self.val_metric)


@dataclass
class TrainState:
    """Everything mutable about a training run — the checkpointable unit.

    ``epoch`` is the *next* epoch index to run; a state with
    ``epoch == config.epochs`` (or ``stopped``) is a finished run.
    """

    optimizer: Optimizer
    rng: np.random.Generator
    history: History
    scheduler: Scheduler | None = None
    epoch: int = 0
    best_metric: float = -np.inf
    best_state: dict[str, np.ndarray] | None = None
    stale_epochs: int = 0
    stopped: bool = False

    def finished(self, total_epochs: int) -> bool:
        return self.stopped or self.epoch >= total_epochs


#: task name → (validation-metric name, needs-neg).  "ranking" is the
#: historical name for the pointwise task; both spellings dispatch the same.
#: "distillation" resolves its metric from the ``hard_task`` it wraps.
_TASKS = {
    "classification": ("accuracy", False),
    "ranking": ("ndcg", False),
    "pointwise": ("ndcg", False),
    "pairwise": ("ndcg", True),
    "distillation": (None, False),
}


def clip_finite(params: list, max_norm: float) -> float:
    """:func:`clip_global_norm`, raising ``FloatingPointError`` when the norm
    it computes is not finite (a NaN norm clips nothing, so the optimizer
    step would write the NaN into a row)."""
    norm = clip_global_norm(params, max_norm)
    if not math.isfinite(norm):
        raise FloatingPointError(f"global gradient norm is {norm}")
    return norm


def _nonfinite_grad_key(model: Module) -> str | None:
    """The ``state_dict`` key of the first parameter whose gradient holds a
    non-finite value (read only on the error path)."""
    for name, p in model.named_parameters():
        g = p.raw_grad
        if g is None:
            continue
        if not np.isfinite(g.values if isinstance(g, SparseRowGrad) else g).all():
            return name
    return None


class Trainer:
    """Runs the optimization loop; one instance per model fit.

    ``callbacks`` (see :mod:`repro.train.callbacks`) observe epoch
    boundaries and may request early stopping.  Subclasses customize the
    *step treatment* — not the loop — by overriding
    :meth:`_process_gradients` (DP-SGD clips and adds noise there).
    """

    def __init__(self, config: TrainConfig | None = None, callbacks: list | None = None) -> None:
        self.config = config or TrainConfig()
        self.callbacks = list(callbacks or [])
        #: the state of the most recent (possibly still-resumable) fit
        self.last_state: TrainState | None = None

    # -- public API -----------------------------------------------------------

    def fit(
        self,
        model: Module,
        x: np.ndarray,
        y: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        task: str = "classification",
        *,
        neg: np.ndarray | None = None,
        teacher: np.ndarray | None = None,
        distill=None,
        hard_task: str = "classification",
        state: TrainState | None = None,
        epoch_hook=None,
        max_epochs: int | None = None,
    ) -> History:
        """Train ``model`` on ``task``; validate with the task's metric.

        ``task`` dispatches the loss and the validation metric:

        * ``"classification"`` — softmax cross-entropy, accuracy;
        * ``"ranking"`` / ``"pointwise"`` — softmax cross-entropy over the
          catalog, nDCG@10 (the softmax scores are the ranking scores, §5.2);
        * ``"pairwise"`` — RankNet logistic loss over ``(x, y=pos, neg)``
          triples (Figure 3), nDCG@10 on ``(x_val, y_val)``;
        * ``"distillation"`` — temperature-scaled soft-target loss against
          frozen ``teacher`` logits (one row per example, shuffled jointly
          with ``x``/``y``), blended with the hard loss per ``distill``
          (a :class:`~repro.train.distill.DistillConfig`); the validation
          metric is ``hard_task``'s (accuracy or nDCG).

        ``state`` resumes a previous run (see :class:`TrainState`);
        ``epoch_hook(state)`` fires after every completed epoch;
        ``max_epochs`` cuts the run early *without* marking it finished —
        the harness's simulated interruption.
        """
        try:
            metric, needs_neg = _TASKS[task]
        except KeyError:
            raise ValueError(
                f"unknown task {task!r}; available: {', '.join(_TASKS)}"
            ) from None
        if needs_neg and neg is None:
            raise ValueError("task 'pairwise' requires the neg array")

        if task == "pairwise":
            arrays = (x, y, neg)

            def batch_loss(batch):
                xb, pb, nb = batch
                s_pos, s_neg = model.score_pair(xb, pb, nb)
                return ranknet_loss(s_pos, s_neg)

        elif task == "distillation":
            if distill is None or teacher is None:
                raise ValueError(
                    "task 'distillation' requires a DistillConfig and teacher logits"
                )
            if hard_task not in ("classification", "ranking", "pointwise"):
                raise ValueError(
                    f"distillation cannot wrap hard task {hard_task!r}"
                )
            metric, _ = _TASKS[hard_task]
            teacher = np.asarray(teacher)
            if teacher.ndim != 2 or len(teacher) != len(x):
                raise ValueError(
                    f"teacher logits must be ({len(x)}, C), got {teacher.shape}"
                )
            arrays = (x, y, teacher)
            temperature, blend = distill.temperature, distill.alpha

            def batch_loss(batch):
                xb, yb, tb = batch
                return distillation_loss(
                    model(xb), tb, yb, temperature=temperature, alpha=blend
                )

        else:
            arrays = (x, y)

            def batch_loss(batch):
                xb, yb = batch
                return softmax_cross_entropy(model(xb), yb)

        eval_task = hard_task if task == "distillation" else task

        def eval_metric() -> float:
            if x_val is None or y_val is None:
                return float("nan")
            if eval_task == "classification":
                return evaluate_classification(model, x_val, y_val)["accuracy"]
            return evaluate_ranking(model, x_val, y_val)["ndcg"]

        return self._loop(
            model, arrays, batch_loss, eval_metric, metric,
            state=state, epoch_hook=epoch_hook, max_epochs=max_epochs,
        )

    def fit_pairwise(
        self,
        model: "Module",
        x: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        **kwargs,
    ) -> History:
        """Train a RankNet with the pairwise logistic loss (Figure 3).

        Thin shim over ``fit(task="pairwise")`` — kept as the historical
        entry point for the Figure 3 harnesses.
        """
        return self.fit(model, x, pos, x_val, y_val, task="pairwise", neg=neg, **kwargs)

    def init_state(self, model: Module) -> TrainState:
        """A fresh :class:`TrainState` for ``model`` under this config."""
        cfg = self.config
        opt = self._make_optimizer(model)
        scheduler: Scheduler | None = None
        if cfg.lr_schedule != "constant":
            scheduler = build_scheduler(
                cfg.lr_schedule, opt, total_steps=cfg.epochs,
                row_target=cfg.warmup_rows,
            )
        return TrainState(
            optimizer=opt, rng=ensure_rng(cfg.seed), history=History(), scheduler=scheduler
        )

    # -- subclass hooks ----------------------------------------------------------

    def _process_gradients(self, opt: Optimizer, batch_size: int) -> None:
        """Between ``loss.backward()`` and ``opt.step()``.

        The default applies the configured global-norm clip; DP training
        replaces this with clip-to-sensitivity plus Gaussian noise.  Both
        clip through :func:`clip_finite`, so a non-finite gradient raises
        ``FloatingPointError`` here, before ``opt.step()`` can apply it;
        the loop adds the epoch, batch and parameter to the message.
        """
        if self.config.grad_clip_norm is not None:
            clip_finite(opt.params, self.config.grad_clip_norm)

    def extra_state(self) -> dict:
        """Trainer-specific JSON-able state a checkpoint should carry
        (DP's noise-stream position and step count).  Default: nothing."""
        return {}

    def load_extra_state(self, extra: dict) -> None:  # noqa: B027 - optional hook
        pass

    # -- internals --------------------------------------------------------------

    def _make_optimizer(self, model: Module) -> Optimizer:
        cfg = self.config
        params = model.parameters()
        if cfg.optimizer == "adam":
            return Adam(params, lr=cfg.lr)
        if cfg.optimizer == "sgd":
            return SGD(params, lr=cfg.lr, momentum=cfg.momentum)
        if cfg.optimizer == "rmsprop":
            return RMSProp(params, lr=cfg.lr)
        return Adagrad(params, lr=cfg.lr)

    def _loop(
        self,
        model,
        arrays,
        batch_loss,
        eval_metric,
        metric_name,
        state: TrainState | None = None,
        epoch_hook=None,
        max_epochs: int | None = None,
    ) -> History:
        from repro.train.callbacks import EpochEvent

        cfg = self.config
        if state is None:
            state = self.init_state(model)
        self.last_state = state
        history = state.history
        history.metric_name = metric_name
        opt, rng, scheduler = state.optimizer, state.rng, state.scheduler
        limit = cfg.epochs if max_epochs is None else min(cfg.epochs, max_epochs)

        for cb in self.callbacks:
            cb.on_train_begin(model)
        model.train()
        while state.epoch < limit and not state.stopped:
            epoch = state.epoch
            epoch_start = time.perf_counter()
            epoch_loss = 0.0
            n_batches = 0
            for batch in iterate_batches(
                arrays,
                cfg.batch_size,
                rng=rng,
                shuffle=cfg.shuffle,
                drop_last=cfg.drop_last,
            ):
                opt.zero_grad()
                loss = batch_loss(batch)
                if not np.isfinite(loss.item()):
                    hint = "" if cfg.grad_clip_norm is not None else " or enable grad_clip_norm"
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch + 1}, "
                        f"batch {n_batches + 1} (lr={opt.lr:g}) — lower the "
                        f"learning rate{hint}"
                    )
                loss.backward()
                try:
                    self._process_gradients(opt, len(batch[0]))
                except FloatingPointError as exc:
                    raise FloatingPointError(
                        f"non-finite gradient at epoch {epoch + 1}, batch {n_batches + 1} "
                        f"(stage: gradient, parameter {_nonfinite_grad_key(model)!r}): {exc}"
                    ) from exc
                opt.step()
                epoch_loss += loss.item()
                n_batches += 1
                if cfg.max_batches_per_epoch and n_batches >= cfg.max_batches_per_epoch:
                    break
            if n_batches == 0:
                raise ValueError(
                    f"no batches: {len(arrays[0])} examples < batch_size {cfg.batch_size} "
                    "with drop_last"
                )
            history.train_loss.append(epoch_loss / n_batches)
            history.steps += n_batches
            history.seconds += time.perf_counter() - epoch_start

            val = eval_metric()
            history.val_metric.append(val)
            val_part = "" if np.isnan(val) else f" {metric_name}={val:.4f}"
            log(f"epoch {epoch + 1}/{cfg.epochs}: loss={history.train_loss[-1]:.4f}{val_part}")
            if scheduler is not None:
                # Plateau schedules need the metric; when no validation data
                # was provided, fall back to (negated) train loss so "no
                # improvement" still means something.
                signal = val if not np.isnan(val) else -history.train_loss[-1]
                scheduler.step(signal)

            stop = False
            if not np.isnan(val) and val > state.best_metric:
                state.best_metric = val
                history.best_epoch = epoch
                state.stale_epochs = 0
                if cfg.early_stopping_patience is not None:
                    state.best_state = model.state_dict()
            else:
                state.stale_epochs += 1
                if (
                    cfg.early_stopping_patience is not None
                    and state.stale_epochs >= cfg.early_stopping_patience
                ):
                    log(f"early stop at epoch {epoch + 1} (best epoch {history.best_epoch + 1})")
                    stop = True

            event = EpochEvent(
                epoch=epoch,
                total_epochs=cfg.epochs,
                train_loss=history.train_loss[-1],
                val_metric=val,
                metric_name=metric_name,
                model=model,
            )
            # Every callback observes every epoch (no short-circuit), then
            # any single stop request ends training.
            requests = [cb.on_epoch_end(event) for cb in self.callbacks]
            if any(requests):
                log(f"callback requested stop at epoch {epoch + 1}")
                stop = True
            state.epoch = epoch + 1
            state.stopped = stop
            if epoch_hook is not None:
                epoch_hook(state)

        # Finalization (restore the best weights) only when the run truly
        # ended — a max_epochs interruption leaves the state continuable.
        if state.finished(cfg.epochs) and state.best_state is not None:
            model.load_state_dict(state.best_state)
        model.eval()
        for cb in self.callbacks:
            cb.on_train_end(model)
        return history
