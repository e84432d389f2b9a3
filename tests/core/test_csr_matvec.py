"""The in-place CSR kernel the backward sweep calls, pinned.

``repro.core.reachability`` runs each step of Algorithm 1 through
``scipy.sparse._sparsetools.csr_matvec``, which is private scipy API.
The sweep's bitwise equality with the full-row recursion rests on two
properties of it, checked here for both index widths:

* into a zeroed output it is bitwise ``A @ x`` (the public product runs
  the same kernel);
* into a nonzero output it *accumulates*, in stored order, starting
  from the output slot: ``y_i = ((y_i + a_1 x_1) + a_2 x_2) + ...``,
  each product rounded before its addition.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec


def _matrix(index_dtype):
    """Random rows in unsorted column order, an empty row, a row whose
    only entry is in the last column, and a row whose sum depends on
    the order of its additions."""
    rng = np.random.default_rng(20070625)
    num_cols = 40
    data, indices, indptr = [], [], [0]
    for _ in range(60):
        width = int(rng.integers(1, 9))
        indices.extend(rng.choice(num_cols, size=width, replace=False))
        data.extend(rng.random(width) * 10.0 ** rng.integers(-8, 8, size=width))
        indptr.append(len(data))
    indptr.append(len(data))  # empty row
    indices.append(num_cols - 1)  # only entry in the last column
    data.append(0.3)
    indptr.append(len(data))
    indices.extend([5, 0, 7, 3])  # ((1e16 + 1) - 1e16) + 1 == 1, not 2
    data.extend([1e16, 1.0, -1e16, 1.0])
    indptr.append(len(data))
    matrix = sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)),
        shape=(len(indptr) - 1, num_cols),
    )
    # The constructor picks the narrowest index type; set the width.
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


def _stored_order(matrix, x, y):
    """``y`` plus the products of each row, added one by one in stored order."""
    out = []
    for i in range(matrix.shape[0]):
        total = float(y[i])
        for jj in range(matrix.indptr[i], matrix.indptr[i + 1]):
            total += float(matrix.data[jj]) * float(x[matrix.indices[jj]])
        out.append(total)
    return np.array(out)


@pytest.fixture(params=[np.int32, np.int64], ids=["int32", "int64"])
def matrix(request):
    matrix = _matrix(request.param)
    assert matrix.indices.dtype == request.param
    assert matrix.indptr.dtype == request.param
    return matrix


def _x(num_cols):
    x = np.random.default_rng(7).random(num_cols)
    x[[0, 3, 5, 7]] = 1.0
    return x


def test_into_zeros_is_the_public_product(matrix):
    x = _x(matrix.shape[1])
    y = np.zeros(matrix.shape[0])
    csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, y)
    expected = matrix @ x
    assert y.tobytes() == expected.tobytes()
    assert y[-3] == 0.0  # the empty row
    assert y[-2] == 0.3 * x[-1]
    assert y[-1] == 1.0


def test_into_nonzero_accumulates_in_stored_order(matrix):
    x = _x(matrix.shape[1])
    start = np.random.default_rng(11).random(matrix.shape[0]) * 1e3
    y = start.copy()
    csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, y)
    assert y.tobytes() == _stored_order(matrix, x, start).tobytes()
    assert y[-3] == start[-3]  # an empty row keeps its slot: no overwrite
