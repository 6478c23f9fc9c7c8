"""The engine's one partitioned-execution strategy, as reportable constants."""

# Partitioned queries scan their surviving partitions on the calling
# thread (docs/STORAGE.md, "Partitioned execution"); this module remains
# only because benchmarks/e2e/run.py imports both names for its
# environment block.


def default_workers() -> int:
    """Always ``1``: partitions are scanned on the calling thread."""
    return 1


def default_executor() -> str:
    """Always ``"inline"``: no worker pool exists."""
    return "inline"
