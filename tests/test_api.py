"""The package's public surface."""

from __future__ import annotations

import permgram


def test_every_exported_name_resolves():
    missing = [name for name in permgram.__all__ if not hasattr(permgram, name)]
    assert not missing
    assert len(set(permgram.__all__)) == len(permgram.__all__)
