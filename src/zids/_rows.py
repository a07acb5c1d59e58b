"""Equal rows grouped by one sort, for prepare and KernelSHAP alike."""

import numpy as np


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the n keys of each batch of a (W, batch, n) unsigned-word
    array, key k of batch b being keys[:, b, k]. Returns inverse, the
    (batch, n) index of each key's group, and the batch and the key that
    stand for each group. Groups are numbered batch by batch, in
    ascending key order, the first word the most significant.

    Sorting puts equal keys side by side; the first key of each run stands
    for its group. One word is sorted by numpy's default sort, which is
    not stable, so any key of the group may stand for it; two or more
    words go through lexsort, which is stable, so the earliest key does.
    """
    batch, n = keys.shape[1:]
    if keys.shape[0] == 1:
        order = keys[0].argsort(axis=-1)  # (batch, n)
    else:
        order = np.lexsort(keys[::-1], axis=-1)
    ordered = np.take_along_axis(keys, order[None], axis=-1)
    first = np.ones((batch, n), dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=0)
    inverse = np.empty((batch, n), dtype=np.intp)
    np.put_along_axis(inverse, order, (np.cumsum(first) - 1).reshape(batch, n), axis=1)
    heads = np.flatnonzero(first)
    return inverse, heads // n, order.reshape(-1)[heads]
