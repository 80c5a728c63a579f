"""The demo scripts and canonical configs stay in step with the library:
every name a demo imports from gffforge exists, and every config loads.
Nothing here runs a demo."""

import ast
import importlib
from pathlib import Path

import pytest

from gffforge.cli import load_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(DEMOS.glob("*.py"))
CONFIGS = sorted((DEMOS / "configs").glob("*.cfg"))


def test_demo_and_config_sets_are_complete():
    assert len(SCRIPTS) == 7
    assert len(CONFIGS) == 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_imports_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gffforge"
    ]
    assert imports, f"{script.name} imports nothing from gffforge"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{script.name}: {node.module} has no {', '.join(missing)}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_canonical_config_loads(config):
    cfg = load_config(config.stem, config)
    assert cfg.experiment == config.stem
    assert cfg.output_dir == f"runs/{config.stem}"
