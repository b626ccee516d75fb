"""NumPy neural-network substrate: autograd tensors, layers, optimizers.

This subpackage replaces PyTorch for the CLFD reproduction.  It provides
everything the paper's models need: a reverse-mode autograd
:class:`~repro.nn.tensor.Tensor`, LSTM and transformer encoders, linear /
embedding / normalisation layers, and the Adam optimizer.
"""

from .attention import (
    MultiHeadAttention,
    TransformerEncoder,
    TransformerEncoderLayer,
    sinusoidal_positions,
)
from .gradcheck import GradcheckFailure, check_gradients, numeric_gradient
from .functional import (
    cosine_similarity_matrix,
    cross_entropy,
    l2_normalize,
    log_softmax,
    nll_loss,
    one_hot,
    softmax,
)
from .layers import Embedding, LayerNorm, Linear
from .fused import fused_head_loss, fused_lstm_sequence
from .lstm import LSTM, LSTMCell
from .module import Module, Parameter
from .optim import Adam, clip_grad_norm
from .profiler import OpStats, Profiler, profile
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    split,
    stack,
)

# Imported last: debug pulls in losses/augment lazily and leans on the
# modules above, so it must not participate in the import cycle.
from . import debug
from .debug import AnomalyError, detect_anomaly, is_anomaly_enabled

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "split",
    "no_grad", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype", "default_dtype",
    "fused_lstm_sequence", "fused_head_loss",
    "Profiler", "OpStats", "profile",
    "Module", "Parameter",
    "Linear", "Embedding", "LayerNorm",
    "LSTM", "LSTMCell",
    "MultiHeadAttention", "TransformerEncoder", "TransformerEncoderLayer",
    "sinusoidal_positions",
    "softmax", "log_softmax", "cross_entropy", "nll_loss", "one_hot",
    "l2_normalize", "cosine_similarity_matrix",
    "Adam", "clip_grad_norm",
    "check_gradients", "numeric_gradient", "GradcheckFailure",
    "debug", "detect_anomaly", "AnomalyError", "is_anomaly_enabled",
]
