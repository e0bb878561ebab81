"""The package surface: ``cpseq.__all__``, the lazy attribute lookup, the README module map and
the README's Python."""

import importlib
import re
from pathlib import Path

import pytest

import cpseq

README = Path(__file__).resolve().parents[1] / "README.md"
# matrix helpers kept out of the public surface: no command, check or benchmark calls them
REMOVED = ("rotation", "quaternion", "compose", "to_matrix", "pulse_error", "interaction_error",
           "product_error_split", "irreducible_decompose", "second_moment_trace_part",
           "reduce_pi_pulse_product")
# the per-family functions: synthesize(family, ...) is the one way to build a family.  Not in
# REMOVED, since plain, corpse, scrofulous and bb1 are also family names in the README.
FAMILY_FUNCTIONS = ("plain", "corpse", "scrofulous", "cis_cccp", "bb1", "alway_jones", "scrofulous_in_corpse")


def test_package_surface_matches_the_readme_module_map():
    namespace = {}
    exec("from cpseq import *", namespace)
    assert set(cpseq.__all__) <= namespace.keys()
    for name in ("rotation", "product_error_split", "reduce_pi_pulse_product", *FAMILY_FUNCTIONS):
        with pytest.raises(AttributeError):
            getattr(cpseq, name)
    for name in FAMILY_FUNCTIONS:
        with pytest.raises(AttributeError):
            getattr(cpseq.sequences, name)
    text = README.read_text(encoding="utf-8")
    assert not set(re.findall(r"`(\w+)`", text)) & set(REMOVED)
    bullets = dict(re.findall(r"^- `cpseq\.(\w+)`:(.*?)(?=^- |^$)", text, re.MULTILINE | re.DOTALL))
    for module in ("su2", "sequences", "error_model", "analysis", "ioutil"):
        named = set(re.findall(r"`(\w+)`", bullets[module]))
        assert set(importlib.import_module(f"cpseq.{module}").__all__) <= named, module


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
