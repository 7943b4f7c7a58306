"""The benchmark's traced run wraps library entry points by name; every
name it wraps must exist where it looks it up, or the traced run breaks."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, *_ in tracing._targets()
               if name not in vars(owner)]
    assert missing == []
