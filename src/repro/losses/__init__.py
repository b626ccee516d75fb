"""Loss functions for the CLFD reproduction."""

from .contrastive import nt_xent_loss, sup_con_loss
from .robust import cce_loss, gce_loss

__all__ = [
    "gce_loss", "cce_loss",
    "nt_xent_loss", "sup_con_loss",
]
