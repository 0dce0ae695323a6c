from .gbdt import GbdtConfig, GbdtModel, gbdt_predict, gbdt_raw, train_gbdt
from .mlp import MlpConfig, MlpModel, mlp_predict, mlp_proba, train_mlp
from .serialize import CorruptError, VersionError
from .svm import (LinearSvmModel, svm_decision, svm_predict, top_coefficients,
                  train_linear_svm)

__all__ = [
    "GbdtConfig", "GbdtModel", "gbdt_predict", "gbdt_raw", "train_gbdt",
    "MlpConfig", "MlpModel", "mlp_predict", "mlp_proba", "train_mlp",
    "CorruptError", "VersionError",
    "LinearSvmModel", "svm_decision", "svm_predict", "top_coefficients",
    "train_linear_svm",
]
