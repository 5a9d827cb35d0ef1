import beamcs


def test_every_exported_name_resolves():
    assert [n for n in beamcs.__all__ if not hasattr(beamcs, n)] == []
    assert len(set(beamcs.__all__)) == len(beamcs.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from beamcs import *", namespace)
    assert set(beamcs.__all__) <= set(namespace)
