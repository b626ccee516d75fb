"""CLFD core: the paper's primary contribution."""

from .clfd import CLFD
from .co_teaching import CoTeachingCLFD, CoTeachingCorrector
from .config import CLFDConfig
from .encoder import SessionEncoder, SoftmaxClassifier
from .fraud_detector import FraudDetector
from .label_corrector import LabelCorrector
from .noise_rates import (
    NoiseRateEstimate,
    estimate_noise_rates,
    recommend_inversion,
)
from .persistence import (build_clfd, load_clfd, model_fingerprint,
                          read_archive, save_clfd)
from .training import train_classifier_head

__all__ = [
    "CLFD", "CLFDConfig",
    "LabelCorrector", "FraudDetector",
    "SessionEncoder", "SoftmaxClassifier",
    "train_classifier_head",
    "CoTeachingCorrector", "CoTeachingCLFD",
    "NoiseRateEstimate", "estimate_noise_rates", "recommend_inversion",
    "save_clfd", "load_clfd", "model_fingerprint", "read_archive",
    "build_clfd",
]
