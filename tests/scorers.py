"""Hand-built scorers for the metric tests, and the model scorer's oracle."""

from unittest import mock

import numpy as np

from bertlab import model as md


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


def gather_scorer(scorer):
    """A `ModelScorer` as it was before the encoder took scored rows: each
    chunk runs the full encoder, last layer included, over all its rows, and
    `gather_rows` then picks the scored ones. The oracle of the rows path."""
    def oracle(input_ids, attention_mask, positions):
        full = md.forward_encoder

        def full_then_gather(params, config, ids, segment_ids, mask, rows=None, **kwargs):
            hidden = full(params, config, ids, segment_ids, mask, **kwargs)
            return hidden if rows is None else md.gather_rows(hidden, rows)
        with mock.patch.object(md, "forward_encoder", full_then_gather):
            return scorer(input_ids, attention_mask, positions)
    return oracle
