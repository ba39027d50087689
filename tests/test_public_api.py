"""The names the package exports."""

import fracrat


def test_every_exported_name_resolves():
    assert len(set(fracrat.__all__)) == len(fracrat.__all__)
    for name in fracrat.__all__:
        assert getattr(fracrat, name) is not None, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fracrat import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fracrat.__all__)
