import bernkit


def test_all_names_resolve():
    # a public name deleted from its module must also leave __all__
    assert len(bernkit.__all__) == len(set(bernkit.__all__))
    missing = [name for name in bernkit.__all__ if not hasattr(bernkit, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from bernkit import *", namespace)
    assert set(bernkit.__all__) <= set(namespace)
