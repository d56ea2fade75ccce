import types

import greedymin as gm


def test_all_lists_each_public_name_once_in_order():
    bound = {name for name, value in vars(gm).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(gm.__all__) == bound
    assert len(gm.__all__) == len(set(gm.__all__))
    assert gm.__all__ == sorted(gm.__all__)
