"""The AlexNet-dense and AlexNet-sparse applications (paper section 4.1).

Both share one architecture: four convolution(+ReLU) stages, each followed
by 2x2 max pooling, and a final fully-connected layer - nine stages, the
paper's pipeline granularity.  The CIFAR-sized network is scaled the way
AlexNet-for-CIFAR implementations are (large early kernels, widths
96/192/384/384).

* **Dense** processes one image per task: regular dense linear algebra,
  the GPU-dominant workload class.
* **Sparse** prunes the convolution weights with magnitude pruning (the
  Condensa stand-in) to CSR and processes a *batch* of images per task
  (128 in the paper) because per-image cost collapses after pruning:
  irregular sparse computation, the workload where isolated performance
  models mispredict the most (paper Figs. 5-6).

Weights are deterministic (seeded) and shared by every task: they are the
paper's "persistent data", captured by the stage kernels by reference so
recycled TaskObjects never copy them.  They are made on the first kernel
call: planning and simulation read only each stage's ``WorkProfile``
(a pruned layer's non-zero count follows from its shape), so a simulated
campaign never builds a tensor.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.datasets import CIFAR_CLASSES, cifar_like_batch, cifar_like_image
from repro.kernels import (
    ConvSpec,
    CsrMatrix,
    conv2d_relu_cpu,
    conv2d_relu_gpu,
    conv_work_profile,
    linear_cpu,
    linear_gpu,
    linear_work_profile,
    maxpool2x2_cpu,
    maxpool2x2_gpu,
    maxpool_work_profile,
    prune_to_csr,
    pruned_nnz,
    sparse_conv2d_relu_cpu,
    sparse_conv2d_relu_gpu,
    sparse_conv_work_profile,
)
from repro.kernels.base import CPU, GPU
from repro.stage import Application, Stage

#: (spec, input HW) for the four convolution stages.
CONV_LAYERS: Tuple[Tuple[ConvSpec, int], ...] = (
    (ConvSpec(in_channels=3, out_channels=96, kernel_size=5, padding=2), 32),
    (ConvSpec(in_channels=96, out_channels=192, kernel_size=5, padding=2), 16),
    (ConvSpec(in_channels=192, out_channels=384, kernel_size=3, padding=1), 8),
    (ConvSpec(in_channels=384, out_channels=384, kernel_size=3, padding=1), 4),
)
#: Flattened feature count feeding the classifier.
FC_IN = 384 * 2 * 2
#: Default pruning level for AlexNet-sparse (Condensa-style aggressive
#: magnitude pruning; the paper reports per-image cost collapsing enough
#: to batch 128 images per task).
DEFAULT_SPARSITY = 0.995
#: Paper batch size for the sparse variant.
DEFAULT_SPARSE_BATCH = 128

_WEIGHT_SEED = 42


@dataclass(frozen=True)
class AlexNetWeights:
    """Deterministic network parameters shared across tasks."""

    conv_weights: Tuple[np.ndarray, ...]
    conv_biases: Tuple[np.ndarray, ...]
    fc_weights: np.ndarray
    fc_bias: np.ndarray


def make_weights(seed: int = _WEIGHT_SEED) -> AlexNetWeights:
    """He-style initialized float32 weights, deterministic per seed."""
    rng = np.random.default_rng(seed)
    conv_weights, conv_biases = [], []
    for spec, _ in CONV_LAYERS:
        fan_in = spec.in_channels * spec.kernel_size**2
        scale = np.sqrt(2.0 / fan_in)
        conv_weights.append(
            (rng.standard_normal(
                (spec.out_channels, spec.in_channels,
                 spec.kernel_size, spec.kernel_size)
            ) * scale).astype(np.float32)
        )
        conv_biases.append(
            (rng.standard_normal(spec.out_channels) * 0.01).astype(np.float32)
        )
    fc_weights = (
        rng.standard_normal((CIFAR_CLASSES, FC_IN))
        * np.sqrt(2.0 / FC_IN)
    ).astype(np.float32)
    fc_bias = np.zeros(CIFAR_CLASSES, dtype=np.float32)
    return AlexNetWeights(
        conv_weights=tuple(conv_weights),
        conv_biases=tuple(conv_biases),
        fc_weights=fc_weights,
        fc_bias=fc_bias,
    )


#: Weights some application still holds, by seed: both AlexNets of one
#: seed run on the same tensors.
_LIVE_WEIGHTS: "weakref.WeakValueDictionary[int, AlexNetWeights]" = (
    weakref.WeakValueDictionary())


class _Parameters:
    """One network's tensors, made when a kernel first asks for them."""

    def __init__(self, seed: int, sparsity: Optional[float] = None):
        self.seed = seed
        self.sparsity = sparsity

    @functools.cached_property
    def weights(self) -> AlexNetWeights:
        weights = _LIVE_WEIGHTS.get(self.seed)
        if weights is None:
            weights = _LIVE_WEIGHTS[self.seed] = make_weights(self.seed)
        return weights

    @functools.cached_property
    def csr_layers(self) -> Tuple[CsrMatrix, ...]:
        return tuple(prune_to_csr(w, sparsity=self.sparsity)
                     for w in self.weights.conv_weights)


def _buffer_plan(batch: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """Names and shapes of all activation buffers, in stage order."""
    plan: List[Tuple[str, Tuple[int, ...]]] = []

    def shaped(shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (batch,) + shape if batch > 1 else shape

    plan.append(("input", shaped((3, 32, 32))))
    for layer, (spec, hw) in enumerate(CONV_LAYERS):
        plan.append((f"act{layer + 1}", shaped((spec.out_channels, hw, hw))))
        plan.append(
            (f"pool{layer + 1}",
             shaped((spec.out_channels, hw // 2, hw // 2)))
        )
    plan.append(("logits", shaped((CIFAR_CLASSES,))))
    return plan


def _per_image(batch: int, fn: Callable[[np.ndarray, np.ndarray], None],
               src: np.ndarray, dst: np.ndarray) -> None:
    """Apply an image kernel over a (possibly absent) batch dimension."""
    if batch > 1:
        for b in range(batch):
            fn(src[b], dst[b])
    else:
        fn(src, dst)


def _dense_stages(params: _Parameters, batch: int) -> List[Stage]:
    stages: List[Stage] = []
    prev = "input"
    for layer, (spec, hw) in enumerate(CONV_LAYERS):
        act, pool = f"act{layer + 1}", f"pool{layer + 1}"

        def conv_kernel(fn, src=prev, dst=act, layer=layer, spec=spec):
            def kernel(task):
                w = params.weights.conv_weights[layer]
                b = params.weights.conv_biases[layer]
                _per_image(
                    batch,
                    lambda x, out: fn(x, w, b, out, spec),
                    task[src], task[dst],
                )
            return kernel

        stages.append(
            Stage(
                name=f"conv{layer + 1}",
                work=conv_work_profile(spec, hw, hw, batch=batch),
                kernels={CPU: conv_kernel(conv2d_relu_cpu),
                         GPU: conv_kernel(conv2d_relu_gpu)},
            )
        )
        stages.append(_pool_stage(spec, hw, batch, src=act, dst=pool))
        prev = pool
    stages.append(_linear_stage(params, batch, src=prev))
    return stages


def _pool_stage(spec: ConvSpec, hw: int, batch: int, src: str,
                dst: str) -> Stage:
    def pool_kernel(fn):
        def kernel(task):
            _per_image(batch, fn, task[src], task[dst])
        return kernel

    return Stage(
        name=dst,
        work=maxpool_work_profile(spec.out_channels, hw, hw, batch=batch),
        kernels={CPU: pool_kernel(maxpool2x2_cpu),
                 GPU: pool_kernel(maxpool2x2_gpu)},
    )


def _linear_stage(params: _Parameters, batch: int, src: str) -> Stage:
    def linear_kernel(fn):
        def kernel(task):
            weights = params.weights
            _per_image(
                batch,
                lambda x, out: fn(x, weights.fc_weights, weights.fc_bias,
                                  out),
                task[src], task["logits"],
            )
        return kernel

    return Stage(
        name="linear",
        work=linear_work_profile(FC_IN, CIFAR_CLASSES, batch=batch),
        kernels={CPU: linear_kernel(linear_cpu),
                 GPU: linear_kernel(linear_gpu)},
    )


def _sparse_stages(params: _Parameters, batch: int) -> List[Stage]:
    stages: List[Stage] = []
    prev = "input"
    for layer, (spec, hw) in enumerate(CONV_LAYERS):
        nnz = pruned_nnz(
            spec.out_channels * spec.in_channels * spec.kernel_size**2,
            params.sparsity)
        act, pool = f"act{layer + 1}", f"pool{layer + 1}"

        def conv_kernel(fn, src=prev, dst=act, layer=layer, spec=spec):
            def kernel(task):
                csr = params.csr_layers[layer]
                bias = params.weights.conv_biases[layer]
                _per_image(
                    batch,
                    lambda x, out: fn(x, csr, bias, out, spec),
                    task[src], task[dst],
                )
            return kernel

        stages.append(
            Stage(
                name=f"sparse-conv{layer + 1}",
                work=sparse_conv_work_profile(spec, hw, hw, nnz=nnz,
                                              batch=batch),
                kernels={CPU: conv_kernel(sparse_conv2d_relu_cpu),
                         GPU: conv_kernel(sparse_conv2d_relu_gpu)},
            )
        )
        stages.append(_pool_stage(spec, hw, batch, src=act, dst=pool))
        prev = pool
    stages.append(_linear_stage(params, batch, src=prev))
    return stages


def _make_task_factory(batch: int) -> Callable[[int], Dict[str, np.ndarray]]:
    plan = _buffer_plan(batch)

    def make_task(seed: int) -> Dict[str, np.ndarray]:
        task: Dict[str, np.ndarray] = {}
        for name, shape in plan:
            if name == "input":
                task[name] = (
                    cifar_like_batch(seed, batch)
                    if batch > 1 else cifar_like_image(seed)
                )
            else:
                task[name] = np.zeros(shape, dtype=np.float32)
        return task

    return make_task


def _validate_logits(task: Dict[str, np.ndarray]) -> None:
    logits = np.asarray(task["logits"])
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")


def build_alexnet_dense() -> Application:
    """The AlexNet-dense application: 9 stages, one image per task."""
    return Application(
        name="alexnet-dense",
        stages=_dense_stages(_Parameters(_WEIGHT_SEED), batch=1),
        make_task=_make_task_factory(batch=1),
        validate_task=_validate_logits,
        description="Dense CNN image classification (regular dense "
                    "linear algebra)",
        input_kind="Image",
    )


def build_alexnet_sparse(
    sparsity: float = DEFAULT_SPARSITY,
    batch: int = DEFAULT_SPARSE_BATCH,
) -> Application:
    """The AlexNet-sparse application: CSR-pruned, ``batch`` images/task."""
    return Application(
        name="alexnet-sparse",
        stages=_sparse_stages(_Parameters(_WEIGHT_SEED, sparsity),
                              batch=batch),
        make_task=_make_task_factory(batch=batch),
        validate_task=_validate_logits,
        description="Pruned (CSR) CNN image classification (irregular "
                    "sparse linear algebra)",
        input_kind="Image",
    )
