import iolw5gsim


def test_star_import_and_sorted_unique_all():
    # a name left in __all__ after its definition is gone breaks only `import *`
    namespace: dict = {}
    exec("from iolw5gsim import *", namespace)
    assert set(iolw5gsim.__all__) <= set(namespace)
    assert iolw5gsim.__all__ == sorted(set(iolw5gsim.__all__))
