"""Tests for the AlexNet applications (dense and sparse)."""

import numpy as np
import pytest

from repro.apps import (
    build_alexnet_dense,
    build_alexnet_sparse,
    cifar_like_image,
    make_weights,
)
from repro.apps.alexnet import CONV_LAYERS, FC_IN
from repro.core import Chunk
from repro.runtime import ThreadedPipelineExecutor


@pytest.fixture(scope="module")
def dense_app():
    return build_alexnet_dense()


@pytest.fixture(scope="module")
def sparse_app():
    return build_alexnet_sparse(batch=2)


def run_single_task(app, chunks, n_tasks=1):
    captured = {}

    def capture(task, index):
        captured.setdefault(index, np.asarray(task["logits"]).copy())

    ThreadedPipelineExecutor(app, chunks).run(
        n_tasks, on_complete=capture, validate=True
    )
    return captured


class TestArchitecture:
    def test_nine_stages(self, dense_app, sparse_app):
        assert dense_app.num_stages == 9
        assert sparse_app.num_stages == 9

    def test_stage_order(self, dense_app):
        assert dense_app.stage_names == (
            "conv1", "pool1", "conv2", "pool2", "conv3", "pool3",
            "conv4", "pool4", "linear",
        )

    def test_fc_input_matches_last_pool(self):
        spec, hw = CONV_LAYERS[-1]
        assert FC_IN == spec.out_channels * (hw // 2) ** 2

    def test_weights_deterministic(self):
        a, b = make_weights(1), make_weights(1)
        for wa, wb in zip(a.conv_weights, b.conv_weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weights_differ_by_seed(self):
        a, b = make_weights(1), make_weights(2)
        assert not np.array_equal(a.conv_weights[0], b.conv_weights[0])


class TestDenseFunctional:
    def test_logits_deterministic_across_runs(self, dense_app):
        a = run_single_task(dense_app, [Chunk(0, 9, "gpu")])
        b = run_single_task(dense_app, [Chunk(0, 9, "big")])
        np.testing.assert_allclose(a[0], b[0], rtol=1e-4, atol=1e-5)

    def test_schedule_invariance(self, dense_app):
        mixed = run_single_task(
            dense_app,
            [Chunk(0, 3, "big"), Chunk(3, 6, "gpu"), Chunk(6, 9, "medium")],
        )
        reference = run_single_task(dense_app, [Chunk(0, 9, "big")])
        np.testing.assert_allclose(mixed[0], reference[0], rtol=1e-4,
                                   atol=1e-5)

    def test_different_inputs_different_logits(self, dense_app):
        captured = run_single_task(dense_app, [Chunk(0, 9, "big")],
                                   n_tasks=2)
        assert not np.allclose(captured[0], captured[1])

    def test_logit_shape(self, dense_app):
        captured = run_single_task(dense_app, [Chunk(0, 9, "big")])
        assert captured[0].shape == (10,)


class TestSparseFunctional:
    def test_batched_logits_shape(self, sparse_app):
        captured = run_single_task(sparse_app, [Chunk(0, 9, "big")])
        assert captured[0].shape == (2, 10)

    def test_schedule_invariance(self, sparse_app):
        mixed = run_single_task(
            sparse_app, [Chunk(0, 5, "gpu"), Chunk(5, 9, "big")]
        )
        reference = run_single_task(sparse_app, [Chunk(0, 9, "big")])
        np.testing.assert_allclose(mixed[0], reference[0], rtol=1e-4,
                                   atol=1e-5)

    def test_sparser_model_has_fewer_nonzeros(self):
        from repro.kernels import prune_to_csr

        weights = make_weights().conv_weights[1]
        lighter = prune_to_csr(weights, sparsity=0.9)
        heavier = prune_to_csr(weights, sparsity=0.5)
        assert lighter.nnz < heavier.nnz

    def test_sparse_work_scales_with_batch(self):
        small = build_alexnet_sparse(batch=2)
        large = build_alexnet_sparse(batch=8)
        assert (
            large.stage("sparse-conv2").work.flops
            == pytest.approx(4 * small.stage("sparse-conv2").work.flops)
        )

    def test_sparse_flops_far_below_dense(self, dense_app):
        sparse = build_alexnet_sparse(batch=1)
        dense_flops = sum(
            s.work.flops for s in dense_app.stages
            if s.name.startswith("conv")
        )
        sparse_flops = sum(
            s.work.flops for s in sparse.stages
            if s.name.startswith("sparse-conv")
        )
        assert sparse_flops < 0.05 * dense_flops


class TestWorkProfiles:
    def test_conv_dominates_pool(self, dense_app):
        assert (
            dense_app.stage("conv2").work.flops
            > 50 * dense_app.stage("pool2").work.flops
        )

    def test_sparse_conv_is_irregular(self, sparse_app, dense_app):
        assert (
            sparse_app.stage("sparse-conv2").work.irregularity
            > dense_app.stage("conv2").work.irregularity
        )

    def test_inputs_are_deterministic(self):
        np.testing.assert_array_equal(
            cifar_like_image(5), cifar_like_image(5)
        )
        assert not np.array_equal(cifar_like_image(5), cifar_like_image(6))

    def test_input_range(self):
        image = cifar_like_image(0)
        assert image.shape == (3, 32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0


class TestLazyParameters:
    """Planning and simulation read only ``WorkProfile``s; the tensors
    are made when a kernel first runs."""

    def test_paper_applications_build_no_weight_tensor(self, monkeypatch):
        import repro.apps.alexnet as alexnet
        from repro.eval.experiments.common import (
            ExperimentScale,
            build_applications,
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a weight tensor was constructed")

        monkeypatch.setattr(alexnet, "make_weights", forbidden)
        monkeypatch.setattr(alexnet, "prune_to_csr", forbidden)
        apps = build_applications(ExperimentScale.paper())
        assert sorted(apps) == ["alexnet-dense", "alexnet-sparse", "octree"]
        assert all(stage.work.flops > 0
                   for app in apps.values() for stage in app.stages)

    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.995])
    def test_nnz_from_the_shape_is_what_pruning_leaves(self, sparsity):
        from repro.kernels import prune_to_csr, pruned_nnz

        # Each conv layer's real weights, then the same shapes with
        # magnitudes forced to tie across the threshold.
        for weights in make_weights().conv_weights:
            for tensor in (weights, np.round(weights, 1)):
                assert (pruned_nnz(tensor.size, sparsity)
                        == prune_to_csr(tensor, sparsity).nnz)

    def test_sparse_profile_nnz_matches_the_pruned_layers(self):
        from repro.kernels import prune_to_csr, sparse_conv_work_profile

        app = build_alexnet_sparse(sparsity=0.9, batch=2)
        weights = make_weights().conv_weights
        for layer, (spec, hw) in enumerate(CONV_LAYERS):
            csr = prune_to_csr(weights[layer], sparsity=0.9)
            assert app.stage(f"sparse-conv{layer + 1}").work == (
                sparse_conv_work_profile(spec, hw, hw, nnz=csr.nnz,
                                         batch=2))

    def test_bad_sparsity_still_fails_at_build(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            build_alexnet_sparse(sparsity=1.0)

    def test_both_networks_of_a_seed_share_one_set_of_tensors(self,
                                                              monkeypatch):
        import repro.apps.alexnet as alexnet

        made = []
        original = alexnet.make_weights
        monkeypatch.setattr(
            alexnet, "make_weights",
            lambda seed: made.append(seed) or original(seed))
        # A seed no live application holds, so the tensors are made here.
        monkeypatch.setattr(alexnet, "_WEIGHT_SEED", 5)
        dense = build_alexnet_dense()
        sparse = build_alexnet_sparse(batch=2)
        run_single_task(dense, [Chunk(0, 9, "big")])
        run_single_task(sparse, [Chunk(0, 9, "big")])
        assert made == [5]

    def test_logits_equal_an_eagerly_built_network(self, dense_app,
                                                   sparse_app):
        # The forward pass as the eager builder ran it: tensors made up
        # front, the host kernels applied stage by stage.
        from repro.kernels import (
            conv2d_relu_cpu,
            linear_cpu,
            maxpool2x2_cpu,
            prune_to_csr,
            sparse_conv2d_relu_cpu,
        )

        weights = make_weights()

        def forward(image, conv):
            x = image
            for layer, (spec, hw) in enumerate(CONV_LAYERS):
                act = np.zeros((spec.out_channels, hw, hw), np.float32)
                conv(layer, x, act, spec)
                x = np.zeros((spec.out_channels, hw // 2, hw // 2),
                             np.float32)
                maxpool2x2_cpu(act, x)
            logits = np.zeros(10, np.float32)
            linear_cpu(x, weights.fc_weights, weights.fc_bias, logits)
            return logits

        def dense_conv(layer, x, out, spec):
            conv2d_relu_cpu(x, weights.conv_weights[layer],
                            weights.conv_biases[layer], out, spec)

        csr = [prune_to_csr(w, sparsity=0.995)
               for w in weights.conv_weights]

        def sparse_conv(layer, x, out, spec):
            sparse_conv2d_relu_cpu(x, csr[layer],
                                   weights.conv_biases[layer], out, spec)

        got = run_single_task(dense_app, [Chunk(0, 9, "big")])[0]
        assert got.tobytes() == forward(
            dense_app.make_task(0)["input"], dense_conv).tobytes()
        got = run_single_task(sparse_app, [Chunk(0, 9, "big")])[0]
        batch = sparse_app.make_task(0)["input"]
        want = np.stack([forward(image, sparse_conv) for image in batch])
        assert got.tobytes() == want.tobytes()
