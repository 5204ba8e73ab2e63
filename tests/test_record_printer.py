"""The single-record printer of project and discriminate. A template is
the record's layout, with its words written in and a slot per float; one
is cached per layout and filled with one % call. It must print, for any
doubles, the bytes of the record-by-record printer in helpers (json.dumps
of the payload, csv.writer over format_number cells)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloccsim import cli

from helpers import discriminate_record_reference, project_record_reference

# any double: hypothesis draws NaN, the infinities, -0.0 and subnormals
# among them; the edge values are added so that every run holds them
DOUBLES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, math.nan,
                     math.inf, -math.inf, 0.1, 1e16, 1e-7, 123456789012345.6]),
    st.floats(allow_nan=True, allow_infinity=True))


def complex_arrays(shape):
    size = math.prod(shape)
    return st.lists(DOUBLES, min_size=2 * size, max_size=2 * size).map(
        lambda parts: np.array(parts).view(np.complex128).reshape(shape))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fmt=st.sampled_from(cli.FORMATS),
       kind_shape=st.sampled_from([("state_vector", (4,)),
                                   ("density_matrix", (4, 4))]),
       data=st.data(), weight=DOUBLES, coherent=st.booleans(), l1=DOUBLES)
def test_project_record_matches_the_record_printer(fmt, kind_shape, data,
                                                    weight, coherent, l1):
    kind, shape = kind_shape
    array = data.draw(complex_arrays(shape))
    assert cli._project_record(fmt, kind, array, weight, coherent, l1) == (
        project_record_reference(fmt, kind, array, weight, coherent, l1))


SCALARS = ("p_err_closed_form", "p_err_povm", "difference", "lambda_plus",
           "overlap_re", "overlap_im")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fmt=st.sampled_from(cli.FORMATS),
       values=st.lists(DOUBLES, min_size=len(SCALARS), max_size=len(SCALARS)),
       elements=st.lists(complex_arrays((4, 4)), min_size=2, max_size=2))
def test_discriminate_record_matches_the_record_printer(fmt, values,
                                                        elements):
    scalars = dict(zip(SCALARS, values))
    assert cli._discriminate_record(fmt, scalars, elements) == (
        discriminate_record_reference(fmt, scalars, elements))

