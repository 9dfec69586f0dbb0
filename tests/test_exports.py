import types

import qcorr


def test_all_names_exist():
    missing = [name for name in qcorr.__all__ if not hasattr(qcorr, name)]
    assert missing == []


def test_every_public_import_is_in_all():
    public = {
        name
        for name, value in vars(qcorr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(qcorr.__all__) == set()
    assert len(qcorr.__all__) == len(set(qcorr.__all__))
