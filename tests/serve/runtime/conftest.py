"""Fixtures for the multi-process runtime tests.

Two things every test here gets:

* a **hard per-test timeout** (SIGALRM — pytest-timeout is not a
  dependency): a supervisor bug that deadlocks the gather loop must fail
  the test in seconds, not hang the suite until CI's global kill;
* session-scoped **artifacts** (one per technique × width), because
  spawning workers re-reads the artifact from disk — building and saving
  the model once per combination keeps the whole directory fast.
"""

import os
import signal

import pytest

from repro.artifact.container import save_artifact
from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet
from repro.serve.runtime import RetryPolicy

#: generous ceiling: the slowest single test (chaos matrix cell with a
#: delayed worker) finishes in a few seconds; a hang hits this instead
HARD_TIMEOUT_S = 120

#: test-tempo failure budget — sub-second timeout, quick backoff
FAST_RETRY = RetryPolicy(
    timeout_s=0.5, max_attempts=3, backoff_base_s=0.02, backoff_max_s=0.2
)

VOCAB, ITEMS, LENGTH, DIM = 600, 7, 4, 16

#: a batch whose ids frame (LENGTH int64 ids a row) is 1 MiB, far past
#: what a pipe or socket buffers: a write of it finishes only while the
#: replica reads
OVERSIZE_ROWS = (1 << 20) // (8 * LENGTH)

_HYPER = {
    "memcom": {"num_hash_embeddings": 64},
    "full": {},
    "tt_rec": {"tt_rank": 2},
    "hashed_onehot": {"num_hash_embeddings": 64},
}

_BUILDERS = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}


@pytest.fixture(autouse=True)
def hard_test_timeout():
    """Fail (don't hang) any test that wedges in supervisor/worker code."""

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"runtime test exceeded the {HARD_TIMEOUT_S}s hard timeout "
            "(supervisor or worker deadlock?)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def build_model(
    technique: str,
    seed: int = 0,
    architecture: str = "pointwise",
    input_length: int = LENGTH,
):
    return _BUILDERS[architecture](
        technique, VOCAB, ITEMS, input_length=input_length, embedding_dim=DIM,
        rng=seed, **_HYPER[technique],
    )


@pytest.fixture(scope="session")
def artifact_for(tmp_path_factory):
    """``artifact_for(technique, bits, architecture, input_length) -> path``
    (built once per combo)."""
    root = tmp_path_factory.mktemp("runtime-artifacts")
    cache: dict[tuple, str] = {}

    def factory(
        technique: str = "memcom",
        bits: int = 32,
        architecture: str = "pointwise",
        input_length: int = LENGTH,
    ) -> str:
        key = (technique, bits, architecture, input_length)
        if key not in cache:
            path = os.path.join(
                root, f"{architecture}-{technique}-{bits}-L{input_length}"
            )
            model = build_model(
                technique, architecture=architecture, input_length=input_length
            )
            save_artifact(model, path, bits=bits)
            cache[key] = path
        return cache[key]

    return factory
