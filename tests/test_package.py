"""The package's public surface."""

from __future__ import annotations

import fuzzyosf


def test_every_export_resolves_once():
    names = fuzzyosf.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fuzzyosf, name), name
