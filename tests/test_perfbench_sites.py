"""Every lookup site the benchmark's span tracer wraps must exist in the package.

``perfbench/spans.py`` wraps layer functions at the module attributes where
their callers look them up. A refactor that drops one of those names (an
import nothing calls any more, say) silently turns its layer metrics off;
this catches it in the tier-1 run, not only in the benchmark self-test.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("span", sorted(SPANS.SITES))
def test_every_site_resolves(span):
    missing = [f"{module}.{path}" for module, path in SPANS.SITES[span]
               if SPANS._resolve(module, path) is None]
    assert not missing, f"span {span!r} has no lookup site at {missing}"
