import contextlib

from polarcube import _pool


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
