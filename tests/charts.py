"""The slice chart as the pipeline builds it, for tests that start from
an algebra and a triple: ``liealg.graded_slice_decomposition`` (the
``decomposition`` stage) handed to ``slice.gauge_fix`` (the ``chart``
stage)."""

from superslice.liealg import dynkin_grading, graded_slice_decomposition
from superslice.slice import gauge_fix


def make_chart(alg, triple, grading=None):
    """The chart of ``triple`` on ``grading``, by default its Dynkin
    grading."""
    if grading is None:
        grading = dynkin_grading(alg, triple)
    return gauge_fix(alg, triple, grading,
                     graded_slice_decomposition(alg, grading, triple))
