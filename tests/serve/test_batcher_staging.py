"""The batcher owns its request ids: staged at submit, range-checked at flush.

``Batcher.submit`` copies each request's ids into int64 bytes held by the
queued request, so the caller's buffer is free once ``submit`` returns and
requests of any integer dtype share one batch.  ``Batcher.flush`` joins and
range-checks every staged row at once: a request with an id outside ``[0, vocab)`` is resolved
with its ``ValueError`` and dropped, and its co-riders are served in exactly
the batches they would have had without it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.builder import build_pointwise_ranker
from repro.serve import batcher as batcher_module
from repro.serve.batcher import Batcher
from repro.serve.engine import InferenceEngine
from repro.serve.session import ServeSession

V, L, E, C = 300, 6, 16, 10


def _engine(input_length=L):
    model = build_pointwise_ranker(
        "memcom", V, C, input_length=input_length, embedding_dim=E,
        num_hash_embeddings=32, rng=0,
    )
    return InferenceEngine(model)


def _message(ids):
    return f"request ids out of range [0, {V}): [{ids.min()}, {ids.max()}]"


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.fixture(scope="module")
def engine():
    """Cache-less, so serving is stateless and reruns are bit-identical."""
    return _engine()


class TestOwnedIds:
    def test_reused_buffer_serves_each_submitted_request(self, engine):
        """A caller refilling one buffer per submit gets each request's own
        scores, not the last request's."""
        batcher = Batcher(engine)
        requests = np.random.default_rng(0).integers(0, V, size=(3, L))
        buffer = np.empty(L, dtype=np.int64)
        pendings = []
        for ids in requests:
            buffer[:] = ids
            pendings.append(batcher.submit(buffer))
        batcher.flush()
        _assert_rows_equal([p.result for p in pendings], engine.predict(requests))

    def test_mutating_the_buffer_after_submit_cannot_jam_the_queue(self, engine):
        batcher = Batcher(engine)
        buffer = np.arange(L, dtype=np.int64)
        pending = batcher.submit(buffer)
        buffer[:] = V  # out of range, but only in the caller's copy
        batcher.flush()
        assert len(batcher) == 0 and pending.error is None
        np.testing.assert_array_equal(
            pending.result, engine.predict(np.arange(L)[None, :])[0]
        )

    def test_mixed_integer_dtypes_share_one_flush(self, engine):
        batcher = Batcher(engine, max_batch=4)
        requests = np.random.default_rng(1).integers(0, V, size=(3, L))
        for ids, dtype in zip(requests, (np.int64, np.uint64, np.int32)):
            batcher.submit(ids.astype(dtype))
        _assert_rows_equal(batcher.flush(), engine.predict(requests))
        assert len(batcher) == 0

    def test_staging_follows_the_engine_input_length(self, engine):
        """A hot swap may change ``input_length``: an empty queue restages at
        the new width, and a queue still holding old-width rows refuses a
        request of the new width rather than mixing the two."""
        rng = np.random.default_rng(2)
        batcher = Batcher(engine, max_batch=2)
        batcher.serve(rng.integers(0, V, size=(5, L)))  # grown past max_batch
        longer = _engine(input_length=L + 2)
        batcher.engine = longer
        requests = rng.integers(0, V, size=(3, L + 2))
        _assert_rows_equal(batcher.serve(requests), longer.predict(requests))
        batcher.submit(requests[0])
        batcher.engine = engine
        with pytest.raises(ValueError, match="input_length changed"):
            batcher.submit(np.zeros(L, dtype=np.int64))
        assert len(batcher) == 1

    def test_scalar_forms_of_one_id_serve_the_same_row(self):
        """At ``input_length=1`` a bare ``int``, a NumPy scalar and a 0-d
        array are each one request of one id."""
        engine = _engine(input_length=1)
        batcher = Batcher(engine)
        got = batcher.serve([7, np.int64(7), np.array(7), np.array([7])])
        want = engine.predict(np.array([[7]]))[0]
        _assert_rows_equal(got, [want] * 4)

    @pytest.mark.parametrize(
        "form", ["column view", "reversed view", "big-endian", "read-only"]
    )
    def test_any_int64_layout_serves_its_contiguous_copy(self, engine, form):
        """Strides, byte order and writability change how a request's ids
        are read, never which ids are staged."""
        rng = np.random.default_rng(5)
        block = rng.integers(0, V, size=(L, 3))
        request = {
            "column view": block[:, 1],
            "reversed view": block[::-1, 0],
            "big-endian": block[:, 2].astype(">i8"),
            "read-only": np.frombuffer(block[:, 0].tobytes(), dtype=np.int64),
        }[form]
        copy = np.array(request, dtype=np.int64, order="C")
        batcher = Batcher(engine)
        got = batcher.serve([request, copy])
        _assert_rows_equal(got, list(engine.predict(np.stack([copy, copy]))))


#: the ways an id falls outside [0, V): below, at the top, and a uint64 that
#: stages as a negative int64
_BAD_IDS = st.one_of(
    st.just(np.int64(-1)),
    st.just(np.int64(V)),
    st.integers(2**63, 2**64 - 1).map(np.uint64),
)


@st.composite
def _flushes(draw):
    """``(max_batch, valid rows, {position: bad row})`` for one flush."""
    max_batch = draw(st.sampled_from([1, 4, 64]))
    n = draw(st.integers(1, 3 * max_batch))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).integers(0, V, size=(n, L))
    positions = draw(st.sets(st.integers(0, n - 1), max_size=n))
    bad = {}
    for i in sorted(positions):
        bad_id = draw(_BAD_IDS)
        row = rows[i].astype(bad_id.dtype)
        row[draw(st.integers(0, L - 1))] = bad_id
        bad[i] = row
    return max_batch, rows, bad


class TestRangeCheckedAtFlush:
    @settings(max_examples=60, deadline=None)
    @given(case=_flushes())
    def test_bad_rows_are_dropped_and_co_riders_served_as_if_alone(self, engine, case):
        max_batch, rows, bad = case
        valid = [ids for i, ids in enumerate(rows) if i not in bad]
        batcher = Batcher(engine, max_batch=max_batch)
        pendings = [batcher.submit(bad.get(i, ids)) for i, ids in enumerate(rows)]
        if bad:
            with pytest.raises(ValueError) as raised:
                batcher.flush()
            assert raised.value is pendings[min(bad)].error
        else:
            _assert_rows_equal(batcher.flush(), [p.result for p in pendings])
        assert len(batcher) == 0
        for i, pending in enumerate(pendings):
            if i in bad:
                assert pending.result is None
                assert str(pending.error) == _message(bad[i])
            else:
                assert pending.error is None
        _assert_rows_equal(
            [p.result for i, p in enumerate(pendings) if i not in bad],
            Batcher(engine, max_batch=max_batch).serve(valid),
        )
        # The next flush serves normally.
        _assert_rows_equal(batcher.serve(rows), engine.predict(rows))

    def test_deadline_mode_raises_out_of_submit(self, engine):
        """Auto-flushes range-check too: at ``max_delay_ms=0`` every submit
        flushes, so a bad request fails its own submit; with a full batch
        as the trigger, the co-riders are served before the error rises."""
        rng = np.random.default_rng(3)
        batcher = Batcher(engine, max_batch=64, max_delay_ms=0.0)
        with pytest.raises(ValueError, match=r"\[-1, -1\]"):
            batcher.submit(np.full(L, -1, dtype=np.int64))
        assert len(batcher) == 0
        ids = rng.integers(0, V, size=L)
        after = batcher.submit(ids)
        assert after.error is None
        np.testing.assert_array_equal(after.result, engine.predict(ids[None, :])[0])

        batcher = Batcher(engine, max_batch=3, max_delay_ms=60_000.0)
        valid = rng.integers(0, V, size=(2, L))
        first = batcher.submit(valid[0])
        bad = batcher.submit(np.full(L, V, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"\[{V}, {V}\]"):
            batcher.submit(valid[1])  # fills the batch
        assert len(batcher) == 0 and batcher.auto_flushes == 1
        assert bad.error is not None and first.error is None
        np.testing.assert_array_equal(first.result, engine.predict(valid)[0])

    @pytest.mark.parametrize("where", ["range check", "engine"])
    def test_base_exception_before_any_delivery_requeues_everything(
        self, engine, where
    ):
        """Interrupted before it delivered anything — in its own range check
        or in the first engine call — a flush leaves every request queued
        with its staged ids."""
        proxy = _Interrupting(engine, where)
        batcher = Batcher(proxy, max_batch=4)
        requests = np.random.default_rng(4).integers(0, V, size=(10, L))
        pendings = [batcher.submit(ids) for ids in requests]
        with pytest.raises(KeyboardInterrupt):
            batcher.flush()
        assert len(batcher) == 10
        assert not any(p.done for p in pendings)
        proxy.armed = False
        _assert_rows_equal(
            batcher.flush(), Batcher(engine, max_batch=4).serve(requests)
        )
        _assert_rows_equal([p.result for p in pendings], engine.predict(requests))

    def test_interrupt_after_a_delivered_batch_requeues_exactly_the_rest(
        self, engine
    ):
        """A ``KeyboardInterrupt`` from a flush's second engine call keeps
        the first batch's results and requeues exactly the undelivered
        requests, with their ids; the next flush serves them as if nothing
        had happened."""
        requests = np.random.default_rng(6).integers(0, V, size=(10, L))
        want = Batcher(engine, max_batch=4).serve(requests)
        proxy = _Interrupting(engine, "second batch")
        batcher = Batcher(proxy, max_batch=4)
        pendings = [batcher.submit(ids) for ids in requests]
        with pytest.raises(KeyboardInterrupt):
            batcher.flush()
        assert [p.done for p in pendings] == [True] * 4 + [False] * 6
        _assert_rows_equal([p.result for p in pendings[:4]], want[:4])
        assert len(batcher) == 6
        proxy.armed, proxy.batches = False, []
        _assert_rows_equal(batcher.flush(), want[4:])
        np.testing.assert_array_equal(np.concatenate(proxy.batches), requests[4:])
        _assert_rows_equal([p.result for p in pendings], want)
        assert len(batcher) == 0

    def test_interrupt_inside_submit_leaves_the_queue_whole(
        self, engine, monkeypatch
    ):
        """A ``KeyboardInterrupt`` that lands while ``submit`` builds its
        request (here from the request's clock) queues nothing: the requests
        queued before it, and the request submitted again, flush and serve
        their own rows."""
        requests = np.random.default_rng(8).integers(0, V, size=(4, L))
        batcher = Batcher(engine, max_batch=4)
        pendings = [batcher.submit(ids) for ids in requests[:3]]
        clock = batcher_module.time.perf_counter

        def interrupted():
            monkeypatch.setattr(batcher_module.time, "perf_counter", clock)
            raise KeyboardInterrupt

        monkeypatch.setattr(batcher_module.time, "perf_counter", interrupted)
        with pytest.raises(KeyboardInterrupt):
            batcher.submit(requests[3])
        assert len(batcher) == 3
        pendings.append(batcher.submit(requests[3]))
        want = engine.predict(requests)
        _assert_rows_equal(batcher.flush(), want)
        _assert_rows_equal([p.result for p in pendings], want)


class TestTracedSession:
    def test_replaced_methods_on_live_instances_are_called(self):
        """A tracer replaces ``batcher.submit``, ``engine.predict`` and
        ``engine.validate_ids`` on the live objects; the session's
        ``submit`` and ``flush`` must still reach every replacement."""
        model = build_pointwise_ranker(
            "memcom", V, C, input_length=L, embedding_dim=E,
            num_hash_embeddings=32, rng=0,
        )
        session = ServeSession.from_model(model, max_batch=4)
        calls = {"submit": 0, "predict": 0, "validate_ids": 0}

        def counted(obj, name):
            real = getattr(obj, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            setattr(obj, name, wrapper)

        counted(session.batcher, "submit")
        counted(session.engine, "predict")
        counted(session.engine, "validate_ids")
        requests = np.random.default_rng(7).integers(0, V, size=(6, L))
        for ids in requests:
            session.submit(ids)
        got = session.flush()
        assert calls == {"submit": 6, "predict": 2, "validate_ids": 2}
        _assert_rows_equal(got, InferenceEngine(model).predict(requests))


class _Interrupting:
    """An engine that raises ``KeyboardInterrupt`` while armed: from its
    ``vocab_size`` read (the flush's range check), from every ``predict``
    (``"engine"``) or from every ``predict`` after the first
    (``"second batch"``)."""

    def __init__(self, engine, where: str) -> None:
        self._engine = engine
        self._where = where
        #: the ids of every ``predict`` call
        self.batches = []
        self.armed = True
        self.input_length = engine.input_length

    @property
    def vocab_size(self):
        if self.armed and self._where == "range check":
            raise KeyboardInterrupt
        return self._engine.vocab_size

    def predict(self, ids):
        self.batches.append(np.array(ids))
        if self.armed and (
            self._where == "engine"
            or self._where == "second batch" and len(self.batches) > 1
        ):
            raise KeyboardInterrupt
        return self._engine.predict(ids)
