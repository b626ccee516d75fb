"""The eight baselines of §IV-A3, adapted to sessions.

Registry :data:`BASELINES` maps the paper's model names to classes so
the experiment harness can instantiate every row of Tables I/II.
"""

from .base import BaselineConfig, BaselineModel, Estimator
from .cldet import CLDetModel
from .ctrr import CTRRModel
from .deeplog import DeepLogModel
from .divmix import DivMixModel, fit_two_component_gmm
from .few_shot import FewShotModel
from .logbert import LogBertModel
from .sel_cl import SelCLModel, knn_correct_labels
from .ulc import ULCModel

BASELINES: dict[str, type[BaselineModel]] = {
    DivMixModel.name: DivMixModel,
    ULCModel.name: ULCModel,
    SelCLModel.name: SelCLModel,
    CTRRModel.name: CTRRModel,
    FewShotModel.name: FewShotModel,
    CLDetModel.name: CLDetModel,
    DeepLogModel.name: DeepLogModel,
    LogBertModel.name: LogBertModel,
}

__all__ = [
    "Estimator", "BaselineConfig", "BaselineModel",
    "DivMixModel", "ULCModel", "SelCLModel", "CTRRModel",
    "FewShotModel", "CLDetModel", "DeepLogModel", "LogBertModel",
    "BASELINES", "fit_two_component_gmm", "knn_correct_labels",
]
