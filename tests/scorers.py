"""Hand-built scorers for the metric tests."""

import numpy as np


def rowwise(scorer):
    """A scorer of the stacked protocol, ids (..., W) to log-probs (..., V),
    from one that takes 2-D rows: the leading dimensions are flattened for
    the call and restored on its result."""
    def stacked(input_ids, attention_mask, positions):
        input_ids = np.asarray(input_ids)
        width = input_ids.shape[-1]
        out = scorer(input_ids.reshape(-1, width),
                     np.asarray(attention_mask).reshape(-1, width),
                     np.asarray(positions).reshape(-1))
        return out.reshape(input_ids.shape[:-1] + out.shape[-1:])
    return stacked
