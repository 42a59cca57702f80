"""The package's export list."""

import singmat


def test_all_names_resolve_without_duplicates():
    assert len(singmat.__all__) == len(set(singmat.__all__))
    for name in singmat.__all__:
        assert hasattr(singmat, name), name
