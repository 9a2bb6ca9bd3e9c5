"""The three evaluated applications (paper section 4.1, Table 1).

============== ======= ======== =================================
Application    Input   Stages   Characteristics
============== ======= ======== =================================
AlexNet-Dense  Image   9        Dense linear algebra
AlexNet-Sparse Image   9        Sparse linear algebra (CSR, batch)
Octree         PC      7        Mixed sparse & dense (Karras)
============== ======= ======== =================================
"""

from repro.apps.alexnet import (
    CONV_LAYERS,
    DEFAULT_SPARSE_BATCH,
    DEFAULT_SPARSITY,
    build_alexnet_dense,
    build_alexnet_sparse,
    make_weights,
)
from repro.apps.datasets import (
    CIFAR_SHAPE,
    cifar_like_batch,
    cifar_like_image,
    point_cloud,
)
from repro.apps.octree_app import (
    DEFAULT_N_POINTS,
    build_octree_application,
    validate_octree_task,
)
from repro.apps.synthetic import (
    build_bandwidth_bound_application,
    build_synthetic_application,
)

#: Paper evaluation order (Table 1).
APPLICATION_BUILDERS = {
    "alexnet-dense": build_alexnet_dense,
    "alexnet-sparse": build_alexnet_sparse,
    "octree": build_octree_application,
}

__all__ = [
    "APPLICATION_BUILDERS",
    "CIFAR_SHAPE",
    "CONV_LAYERS",
    "DEFAULT_N_POINTS",
    "DEFAULT_SPARSE_BATCH",
    "DEFAULT_SPARSITY",
    "build_alexnet_dense",
    "build_alexnet_sparse",
    "build_bandwidth_bound_application",
    "build_octree_application",
    "build_synthetic_application",
    "cifar_like_batch",
    "cifar_like_image",
    "make_weights",
    "point_cloud",
    "validate_octree_task",
]
