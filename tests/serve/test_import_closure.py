"""Serving runs without the training stack.

An artifact stores its embedding's frozen form and its tower as plain
arrays, so a process that imports :mod:`repro.serve` and loads and serves
an artifact needs neither the autograd substrate nor the technique modules
that trained it.  A fresh interpreter pins that closure: after loading an
FP32 artifact eagerly and mapped, and an int8 artifact, and predicting on
each, no training-side module and no scipy may have been imported.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.artifact import save_artifact
from repro.models.builder import build_pointwise_ranker

_PROBE = textwrap.dedent("""
    import json, sys

    import numpy as np

    import repro.serve
    from repro.serve import ServeConfig, ServeSession

    fp32, int8 = sys.argv[1:3]
    for path, config in ((fp32, ServeConfig()), (fp32, ServeConfig(mmap=True)),
                         (int8, ServeConfig())):
        with ServeSession.load(path, config) as session:
            ids = np.arange(session.engine.input_length)[None, :]
            assert np.isfinite(session.predict(ids)).all()
    print(json.dumps(sorted(sys.modules)))
""")

_FORBIDDEN = ("repro.nn", "repro.models", "repro.data", "repro.core", "scipy")


def test_serving_an_artifact_imports_no_training_code(tmp_path):
    model = build_pointwise_ranker(
        "memcom", 500, 20, input_length=8, embedding_dim=16, rng=0,
        num_hash_embeddings=32,
    )
    fp32, int8 = str(tmp_path / "fp32"), str(tmp_path / "int8")
    save_artifact(model, fp32)
    save_artifact(model, int8, bits=8)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, fp32, int8],
        capture_output=True, text=True, env=env, check=True,
    )
    modules = json.loads(out.stdout)
    assert "repro.serve" in modules
    leaked = [
        m for m in modules
        if any(m == root or m.startswith(root + ".") for root in _FORBIDDEN)
    ]
    assert not leaked, f"serving imported training-side modules: {leaked}"
