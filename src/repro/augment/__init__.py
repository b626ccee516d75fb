"""Data augmentation: session reordering (SimCLR views) and mixup."""

from .mixup import MixupBatch, sample_mixup
from .reorder import reorder_ids

__all__ = ["reorder_ids", "MixupBatch", "sample_mixup"]
