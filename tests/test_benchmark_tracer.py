"""The benchmark's tracer (``perfbench/tracer.py``) wraps library callables
where their callers look them up, listed in its ``SITES``.  A site that is
gone makes ``python3 perfbench/run.py --trace 1`` report ``correct: false``;
these tests make a library change that moves one fail here first."""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    path = str(ROOT / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import tracer
    return tracer


def test_every_tracer_site_is_an_attribute_of_its_owner():
    """Each site's owner holds the attribute in its own ``__dict__``, of the
    kind the tracer wraps it as; an active tracer misses none, and restores
    every one on exit."""
    tracer = _tracer()
    assert tracer.SITES
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer.SITES
               if attr not in vars(owner)]
    assert missing == []
    for owner, attr, _, kind, _, _ in tracer.SITES:
        raw = vars(owner)[attr]
        if kind == "classmethod":
            assert isinstance(raw, classmethod), (owner, attr)
        else:
            assert inspect.isgeneratorfunction(raw) == (kind == "gen"), (owner, attr)
    before = [vars(owner)[attr] for owner, attr, *_ in tracer.SITES]
    with tracer.Tracer() as active:
        pass
    assert active.missing == []
    assert [vars(owner)[attr] for owner, attr, *_ in tracer.SITES] == before
