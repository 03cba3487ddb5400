"""Post-training quantization calibration engine.

Quantization primitives, per-channel smoothing, gradient-guided token
selection, layer-wise ratio search with quantized-activation propagation,
and a memory-decoupled distributed calibration protocol, all on synthetic
straight-line layer stacks. Each name is imported from the module that
defines it, such as `tlq.calibration` or `tlq.distcal`.
"""
