import akcarc


def test_every_export_resolves():
    # a name left in __all__ after its import went breaks `from akcarc import *`
    missing = [name for name in akcarc.__all__ if not hasattr(akcarc, name)]
    assert missing == []
