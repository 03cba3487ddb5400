"""Post-training quantization calibration engine.

Quantization primitives, per-channel smoothing, gradient-guided token
selection, layer-wise ratio search with quantized-activation propagation,
and a memory-decoupled distributed calibration protocol, all on synthetic
straight-line layer stacks.
"""

from .calibration import (
    CalibrationResult,
    LayerCalibration,
    RatioGrid,
    calibrate,
    layer_loss,
    quantize_with_result,
    search_ratio,
)
from .errors import (
    CheckpointError,
    ConfigError,
    LedgerError,
    NumericError,
    ProtocolError,
    ShapeError,
    TlqError,
)
from .importance import (
    SelectedTokens,
    first_order_output_error,
    select_top_tokens,
    token_importance_sums,
)
from .layers import Activation, LayerStack, Linear, RMSNorm
from .model import (
    CalibrationSet,
    ForwardTrace,
    GradTrace,
    ProxyLossSpec,
    backward_token_grads,
    forward_fp,
    forward_quant,
    load_calibset,
    load_checkpoint,
    quantized_weight,
    quantized_weights,
    save_calibset,
    save_checkpoint,
)
from .quantizer import QuantConfig, QuantizedTensor, dequantize, quantize
from .smoothing import SmoothScale, fuse_into_predecessor, power_scale
from .tensor import Rng, matmul, rand_normal

__all__ = [name for name in dir() if not name.startswith("_")]
