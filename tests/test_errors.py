"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors
from repro.core.serialization import SerializationError


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.SolverError,
        errors.SolverTimeoutError, errors.ModellingError,
        errors.PlatformError, errors.KernelError,
        errors.SchedulingError, errors.ProfilingError,
        errors.PipelineError, errors.QueueClosedError,
        errors.TransientKernelFault, errors.PuFailureError,
        SerializationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_solver_family(self):
        assert issubclass(errors.SolverTimeoutError, errors.SolverError)
        assert issubclass(errors.ModellingError, errors.SolverError)

    def test_queue_closed_is_pipeline_error(self):
        assert issubclass(errors.QueueClosedError, errors.PipelineError)

    def test_fault_family_is_pipeline_error(self):
        assert issubclass(errors.TransientKernelFault,
                          errors.PipelineError)
        assert issubclass(errors.PuFailureError, errors.PipelineError)

    def test_pu_failure_carries_pu_class(self):
        exc = errors.PuFailureError("gpu")
        assert exc.pu_class == "gpu"
        assert "gpu" in str(exc)

    def test_single_catch_at_api_boundary(self):
        """The documented usage pattern: one except clause suffices."""
        try:
            raise errors.KernelError("bad shapes")
        except errors.ReproError as exc:
            assert "bad shapes" in str(exc)
