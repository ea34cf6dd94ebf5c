import temof


def test_every_exported_name_resolves():
    assert len(set(temof.__all__)) == len(temof.__all__)
    missing = [name for name in temof.__all__ if not hasattr(temof, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from temof import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(temof.__all__)
