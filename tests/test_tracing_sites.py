"""Every site the benchmark tracer wraps still exists.

`perfbench/tracing.py` resolves each "module:attr" (or "module:Class.method")
site of its LAYERS table with getattr when it installs, so a renamed or
deleted name crashes every traced benchmark run.  This resolves them all
without wrapping anything.
"""

import importlib
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    # run the source rather than import it: nothing is cached under perfbench/
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(_TRACING.read_text(), str(_TRACING), "exec"), namespace)
    return namespace["LAYERS"]


SITES = sorted({site for sites, _ in _layers().values() for site in sites})


@pytest.mark.parametrize("site", SITES)
def test_traced_site_resolves(site):
    module_name, attr = site.split(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
