"""Exports and calibration refuse non-finite numbers.

A device that receives an artifact cannot retrain it, so NaN or ±inf
must fail where the numbers are made, not per request:
``collect_artifact`` checks every float payload before anything is
written, and calibration checks every form table.  Each error names the
tensor and its first bad row, and no file is left behind.
"""

import os
import re

import numpy as np
import pytest

from repro.artifact import NonFiniteError, save_artifact, save_delta
from repro.core.registry import available_techniques, default_hyper
from repro.models.builder import build_pointwise_ranker
from repro.serve.engine import InferenceEngine
from repro.serve.session import ServeConfig, ServeSession

VOCAB, DIM, LENGTH, CATALOG = 220, 8, 6, 10

#: every technique with per-id rows (the pooled one-hot encoder has none)
PER_ID = [t for t in available_techniques() if t != "hashed_onehot"]


def _model(technique):
    return build_pointwise_ranker(
        technique, VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM,
        rng=0, **default_hyper(technique, VOCAB, DIM, hash_fraction=8),
    )


def _plant(model, table, value):
    """Set one value of form table ``table``; returns the row it is in."""
    data = model.embedding.frozen().tables[table].data
    row = min(3, len(data) - 1)
    data[row, -1] = value
    return row


_CASES = [(t, name) for t in PER_ID for name in _model(t).embedding.frozen().tables]


@pytest.mark.parametrize("technique,table", _CASES)
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("bits", [32, 8, 4])
def test_export_refuses_a_non_finite_form_table(tmp_path, technique, table, value, bits):
    model = _model(technique)
    row = _plant(model, table, value)
    # FP32 names the payload, calibration the form table it quantizes.
    error = NonFiniteError if bits == 32 else ValueError
    with pytest.raises(error, match=rf"{re.escape(table)}' .*row {row};"):
        save_artifact(model, str(tmp_path / "a"), bits=bits)
    assert os.listdir(tmp_path) == []


def test_quantized_export_checks_the_fp32_tower(tmp_path):
    model = _model("memcom")
    model.out.weight.data[2, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"'tower/out\.weight' .*row 2;"):
        save_artifact(model, str(tmp_path / "a"), bits=8)
    assert os.listdir(tmp_path) == []


def test_checkpoint_payloads_are_checked(tmp_path):
    model = _model("full")
    slots = {"opt/m.0": np.zeros((VOCAB, DIM), np.float32)}
    slots["opt/m.0"][7, 1] = -np.inf
    with pytest.raises(NonFiniteError, match=r"'checkpoint/opt/m\.0' .*row 7;"):
        save_artifact(model, str(tmp_path / "a"), checkpoint=({}, slots))
    assert os.listdir(tmp_path) == []


def test_delta_and_session_save_refuse_too(tmp_path):
    model = _model("memcom")
    parent = str(tmp_path / "parent")
    save_artifact(model, parent)
    _plant(model, "shared", np.nan)
    with pytest.raises(NonFiniteError, match="'embedding/shared'"):
        save_delta(model, str(tmp_path / "delta"), parent)
    with pytest.raises(NonFiniteError, match="'embedding/shared'"):
        ServeSession.from_model(model).save(str(tmp_path / "session"))
    assert os.listdir(tmp_path) == ["parent"]


@pytest.mark.parametrize("bits", [8, 4])
def test_engine_calibration_refuses_a_non_finite_table(bits):
    model = _model("tt_rec")
    row = _plant(model, "core2", np.inf)
    with pytest.raises(ValueError, match=rf"'core2' .*row {row};"):
        InferenceEngine(model, bits=bits)
    with pytest.raises(ValueError, match="'core2'"):
        ServeSession.from_model(model, ServeConfig(bits=bits))
