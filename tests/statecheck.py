"""One equality check for two ModelStates, field by field, so the resume and
save/load tests compare the same things the same way."""

import numpy as np


def assert_same_state(got, want) -> None:
    """Params bit for bit and in dtype, Adam m/v/t per path, step, lineage,
    checkpoint id, config and vocabulary."""
    assert set(got.params) == set(want.params)
    for path, t in want.params.items():
        np.testing.assert_array_equal(got.params[path].data, t.data, err_msg=path)
        assert got.params[path].data.dtype == t.data.dtype, path
    assert set(got.optimizer_state) == set(want.optimizer_state)
    for path, slot in want.optimizer_state.items():
        other = got.optimizer_state[path]
        np.testing.assert_array_equal(other["m"], slot["m"], err_msg=path)
        np.testing.assert_array_equal(other["v"], slot["v"], err_msg=path)
        assert other["m"].dtype == slot["m"].dtype and other["v"].dtype == slot["v"].dtype
        assert other["t"] == slot["t"], path
    assert got.step == want.step
    assert got.lineage == want.lineage
    assert got.checkpoint_id == want.checkpoint_id
    assert got.config == want.config
    assert got.vocab == want.vocab
