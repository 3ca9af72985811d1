import pytest

import crossmodal.nets as nets_mod


@pytest.fixture
def fold_every_term():
    """``FOLD_TERMS = 1``: every step is folded in as it is taken, with the
    dense update's operations in its order, so the weights can be compared
    byte for byte with an eager dense update. Patched apart from the test's
    own ``monkeypatch``, which some tests undo as they go."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nets_mod, "FOLD_TERMS", 1)
        yield
