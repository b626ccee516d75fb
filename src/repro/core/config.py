"""Configuration for the CLFD framework.

Defaults follow §IV-A2 of the paper (dims 50, R=100, M=20, α=1, q=0.7,
β=16, Adam lr=0.005, 10 pre-training epochs, 500 classifier epochs).
The experiment harness overrides the epoch counts and dimensions with
CPU-sized values; see EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import types
from typing import ClassVar, Mapping

from ..data.word2vec import Word2VecConfig

__all__ = ["CLFDConfig"]

_CLASSIFIER_LOSSES = ("mixup_gce", "gce", "cce")
_SUPCON_VARIANTS = ("weighted", "unweighted", "filtered")
_INFERENCE_MODES = ("classifier", "centroid")


@dataclasses.dataclass
class CLFDConfig:
    """All hyper-parameters and ablation switches for CLFD.

    The ablation switches map one-to-one onto Table IV/V rows:

    ===========================  =======================================
    Table row                    Config
    ===========================  =======================================
    CLFD (full)                  defaults
    w/o LC                       ``use_label_corrector=False``
    w/o mixup-GCE                ``classifier_loss="gce"``
    w/o GCE loss                 ``classifier_loss="cce"``
    w/o FD                       ``use_fraud_detector=False``
    w/o L_Sup                    ``supcon_variant="unweighted"``
    w/o classifier (FD)          ``inference="centroid"``
    ===========================  =======================================
    """

    # Architecture (§IV-A2: all representation sizes are 50).
    embedding_dim: int = 50
    hidden_size: int = 50
    lstm_layers: int = 2

    # Numerics: floating dtype for model parameters and activations.
    compute_dtype: str = "float64"  # "float32" | "float64"

    # Batching: R sessions per batch, M auxiliary malicious sessions.
    batch_size: int = 100
    aux_batch_size: int = 20

    # Loss hyper-parameters.
    temperature: float = 1.0        # α in Eq. 6
    q: float = 0.7                  # GCE exponent
    # Beta(β, β) for mixup. The paper defines β ∈ [0, 1] (§III-A1) yet
    # sets β = 16 in §IV-A2; see repro.augment.mixup.sample_mixup for why
    # this implementation follows the formal definition.
    mixup_beta: float = 0.3
    filter_threshold: float = 0.7   # τ for the filtered variant

    # Optimisation.
    lr: float = 0.005
    ssl_epochs: int = 10            # SimCLR pre-training (label corrector)
    supcon_epochs: int = 10         # supervised pre-training (fraud detector)
    classifier_epochs: int = 500    # mixup-GCE classifier heads
    grad_clip: float = 5.0

    # Augmentation (CLDet session reordering window).
    reorder_sub_len: int = 3

    # Word2vec activity embeddings.
    word2vec: Word2VecConfig | None = None

    # Ablation switches (see class docstring).
    use_label_corrector: bool = True
    use_fraud_detector: bool = True
    classifier_loss: str = "mixup_gce"
    supcon_variant: str = "weighted"
    inference: str = "classifier"

    # Fields this config no longer has, with the value every record
    # written before their removal holds.  Archives still carry them in
    # ``meta["config"]`` (:meth:`from_dict` drops them), and RunCache
    # keys hashed them (``task_key`` hashes them back in).
    RETIRED_FIELDS: ClassVar[Mapping[str, object]] = types.MappingProxyType(
        {"compile": False, "encoder_cell": "lstm", "pooling": "mean",
         "fused_rnn": True, "detect_anomaly": False})

    def __post_init__(self):
        if not (self.use_label_corrector or self.use_fraud_detector):
            raise ValueError("at least one of use_label_corrector/"
                             "use_fraud_detector must be enabled")
        if self.word2vec is None:
            self.word2vec = Word2VecConfig(dim=self.embedding_dim)
        if self.word2vec.dim != self.embedding_dim:
            raise ValueError("word2vec.dim must equal embedding_dim")
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError("compute_dtype must be float32 or float64")
        if self.classifier_loss not in _CLASSIFIER_LOSSES:
            raise ValueError(
                f"classifier_loss must be one of {_CLASSIFIER_LOSSES}"
            )
        if self.supcon_variant not in _SUPCON_VARIANTS:
            raise ValueError(f"supcon_variant must be one of {_SUPCON_VARIANTS}")
        if self.inference not in _INFERENCE_MODES:
            raise ValueError(f"inference must be one of {_INFERENCE_MODES}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        for field in ("ssl_epochs", "supcon_epochs", "classifier_epochs"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")

    @classmethod
    def from_dict(cls, data: Mapping) -> "CLFDConfig":
        """Rebuild a config from its ``dataclasses.asdict`` form (an
        archive's ``meta["config"]``), ignoring retired fields.

        Raises ``ValueError`` when the config names an encoder cell or
        pooling other than the one encoder this package builds.
        """
        for key in ("encoder_cell", "pooling"):
            kept = cls.RETIRED_FIELDS[key]
            value = data.get(key, kept)
            if value != kept:
                raise ValueError(
                    f"archive config has {key}={value!r}; that encoder "
                    f"variant was removed, only {key}={kept!r} loads")
        fields = {key: value for key, value in data.items()
                  if key not in cls.RETIRED_FIELDS}
        fields["word2vec"] = Word2VecConfig(**fields["word2vec"])
        return cls(**fields)

    @classmethod
    def fast(cls, **overrides) -> "CLFDConfig":
        """CPU-sized configuration used by tests, examples and benches.

        Keeps the paper's loss hyper-parameters (q, β, α) but shrinks
        model width and epoch counts so a full train/eval cycle runs in
        seconds on a laptop.
        """
        defaults = dict(
            embedding_dim=16,
            hidden_size=24,
            batch_size=64,
            aux_batch_size=16,
            ssl_epochs=4,
            supcon_epochs=4,
            classifier_epochs=150,
            word2vec=Word2VecConfig(dim=16, epochs=2),
        )
        defaults.update(overrides)
        return cls(**defaults)
