"""The package's public surface."""

import pidga


def test_every_exported_name_resolves_once():
    assert len(set(pidga.__all__)) == len(pidga.__all__)
    missing = [name for name in pidga.__all__ if not hasattr(pidga, name)]
    assert missing == []
