"""Every wrapped lookup site exists in ``src/``, and the traced child
records spans through the post-import hook."""

import importlib
import json
import os
import subprocess
import sys

import pytest
from conftest import PIPELINE, ROOT
from traced_child import SITES, resolve


@pytest.mark.parametrize("module, attr_path, name, _annotate", SITES)
def test_site_resolves_to_a_callable(module, attr_path, name, _annotate):
    owner, attr = resolve(importlib.import_module(module), attr_path)
    assert callable(getattr(owner, attr)), f"{module}.{attr_path} ({name})"


def test_traced_child_records_every_engine_layer(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps({"queries": [
        {"model": {"family": "ftwc", "n": 1}, "t": 10.0},
        {"model": {"family": "ftwc", "n": 1}, "t": 20.0, "objective": "min"},
    ]}))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PIPELINE_SPANS=str(spans_path))
    subprocess.run(
        [sys.executable, str(PIPELINE / "traced_child.py"), "batch", str(queries),
         "--out", str(tmp_path / "a.json"), "--cache-dir", str(tmp_path / "cache")],
        env=env, cwd=ROOT, check=True, timeout=120,
    )
    spans = json.loads(spans_path.read_text())["spans"]
    names = [span["name"] for span in spans]
    assert names[0] == "startup.import"
    for name in ("engine.run_dicts", "engine.registry_get", "models.build_ctmdp",
                 "io.write_tra", "core.prepare", "core.solve", "numerics.fox_glynn",
                 "obs.certificate"):
        assert name in names
    assert names.count("core.solve") == 2
    by_index = dict(enumerate(spans))
    for span in spans:
        if span["name"] == "numerics.fox_glynn":
            assert by_index[span["parent"]]["name"] == "core.solve"
        assert span["start"] <= span["end"]
