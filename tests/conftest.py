import contextlib

import numpy as np

from polarcube import _pool, demosaic_footprint
from polarcube.reconstruct import _bad_pixel_mask


@contextlib.contextmanager
def pool_settings(workers, block_values):
    """Run the block pool with ``workers`` threads (1: inline) and ``block_values``-sized blocks."""
    saved = _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES
    _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = workers, None, block_values
    try:
        yield
    finally:
        if _pool._tasks is not None:  # stop this pool's threads
            for _ in range(workers):
                _pool._tasks.put(None)
        _pool.WORKERS, _pool._tasks, _pool.BLOCK_VALUES = saved


def flagged_entries(raw):
    """(H, W, C): the (pixel, channel) entries whose estimate uses a flagged sample of ``raw``.

    A sample is flagged when it lies at or past a clipping level, or when the mask rule
    (``_bad_pixel_mask``) flags it.  A sequential entry uses its channel's frames at its
    pixel; a mosaic entry uses every sample that ``demosaic_footprint`` spreads to it in its
    colour's segment planes.
    """
    flags = _bad_pixel_mask(raw.frames, raw)
    flags |= (raw.frames >= raw.saturation_level) | (raw.frames <= raw.black_level)
    if raw.layout is None:
        entries = np.zeros((raw.height, raw.width, len({c for c, _ in raw.tags})), bool)
        for bad, (c, _) in zip(flags, raw.tags):
            entries[..., c] |= bad
        return entries
    footprint = demosaic_footprint(flags[0])
    return np.stack([footprint[[k for k, _ in raw.layout.cells_for_color(c)]].any(axis=0)
                     for c in range(3)], axis=-1)
