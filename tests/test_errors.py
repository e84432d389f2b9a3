"""Tests for the exception hierarchy contract."""

import pytest

from repro.errors import (
    CompositionError,
    ModelError,
    NonUniformError,
    NumericalError,
    ReproError,
    TransformationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            ModelError,
            NonUniformError,
            TransformationError,
            NumericalError,
            CompositionError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        with pytest.raises(ReproError):
            raise exception("boom")

    def test_non_uniform_is_a_model_error(self):
        # Callers catching structural problems also catch uniformity ones.
        assert issubclass(NonUniformError, ModelError)

    def test_library_never_raises_bare_exceptions(self):
        """Representative API misuses map to the library hierarchy."""
        from repro.ctmc.model import CTMC
        from repro.imc.model import IMC
        from repro.numerics.foxglynn import fox_glynn

        with pytest.raises(ReproError):
            IMC(num_states=0)
        with pytest.raises(ReproError):
            CTMC.from_transitions(1, [(0, 0, -1.0)])
        with pytest.raises(ReproError):
            fox_glynn(-5.0)
