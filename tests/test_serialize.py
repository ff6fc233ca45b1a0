import io
import json

import numpy as np
import pytest

from schur_dilate import serialize
from schur_dilate.dilation import KrausChannel, Povm, channel_dilate
from schur_dilate.sampling import complex_gaussian, random_coisometry, rng_from_seed
from schur_dilate.scparams import (
    BlockShape,
    col_parametrize,
    col_reconstruct,
    matrix_parametrize,
    matrix_reconstruct,
    psd_parametrize,
    psd_reconstruct,
    row_parametrize,
    row_reconstruct,
)
from schur_dilate.linalg import dagger
from schur_dilate.sampling import random_contraction


def test_matrix_roundtrip_via_json_text():
    rng = rng_from_seed(101)
    a = complex_gaussian(rng, 3, 2)
    text = json.dumps(serialize.matrix_to_obj(a))
    b = serialize.matrix_from_obj(json.loads(text))
    assert b.shape == a.shape
    np.testing.assert_allclose(b, a, rtol=1e-15, atol=0)


def test_matrix_obj_validation():
    with pytest.raises(ValueError):
        serialize.matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        serialize.matrix_from_obj(
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})
    for entry in (["a", 0.0], [None, 0.0], ["1.0", 0.0], [0.0, "1.0"]):
        with pytest.raises(ValueError):
            serialize.matrix_from_obj({"rows": 1, "cols": 1, "data": [entry]})
        with pytest.raises(ValueError):
            serialize.vector_from_obj([entry])


@pytest.mark.parametrize("entry", [[True, False], [0.5, True], [False, 0.0]])
def test_boolean_entries_are_rejected(entry):
    data = json.loads(json.dumps([[0.25, -1.0], entry]))   # JSON true/false
    with pytest.raises(ValueError, match="booleans"):
        serialize.matrix_from_obj({"rows": 1, "cols": 2, "data": data})
    with pytest.raises(ValueError, match="booleans"):
        serialize.vector_from_obj(data)


def test_row_params_roundtrip():
    rng = rng_from_seed(102)
    t = random_contraction(rng, 2, 6)
    params = row_parametrize(t, BlockShape((2,), (2, 2, 2)))
    obj = json.loads(json.dumps(serialize.params_to_obj(params)))
    back = serialize.params_from_obj(obj)
    np.testing.assert_allclose(row_reconstruct(back), t, atol=1e-8)


def test_column_params_roundtrip():
    rng = rng_from_seed(103)
    t = random_contraction(rng, 6, 2)
    params = col_parametrize(t, BlockShape((2, 2, 2), (2,)))
    back = serialize.params_from_obj(serialize.params_to_obj(params))
    np.testing.assert_allclose(col_reconstruct(back), t, atol=1e-8)


def test_matrix_params_roundtrip():
    rng = rng_from_seed(104)
    t = random_contraction(rng, 5, 4)
    shape = BlockShape((2, 3), (2, 2))
    params = matrix_parametrize(t, shape)
    back = serialize.params_from_obj(serialize.params_to_obj(params))
    assert back.shape == shape
    np.testing.assert_allclose(matrix_reconstruct(back), t, atol=1e-8)


def test_psd_params_roundtrip():
    rng = rng_from_seed(105)
    g = complex_gaussian(rng, 5, 5)
    a = dagger(g) @ g
    params = psd_parametrize(a, BlockShape((2, 2, 1), (2, 2, 1)))
    back = serialize.params_from_obj(serialize.params_to_obj(params))
    np.testing.assert_allclose(psd_reconstruct(back), a, atol=1e-8)


def test_params_from_obj_validation():
    with pytest.raises(ValueError):
        serialize.params_from_obj({"kind": "nope", "shape": {"row_dims": [1],
                                                             "col_dims": [1]}})
    with pytest.raises(ValueError):
        serialize.params_from_obj({
            "kind": "psd",
            "shape": {"row_dims": [1, 1], "col_dims": [1, 1]},
            "gammas": [],
            "diag_roots": [],
        })


def test_povm_roundtrip():
    rng = rng_from_seed(106)
    mm = random_coisometry(rng, 2, 4)
    povm = Povm.from_vectors([mm[:, j] for j in range(4)])
    back = serialize.povm_from_obj(serialize.povm_to_obj(povm))
    assert back.dim == 2 and back.outcomes == 4
    for a, b in zip(povm.effects, back.effects):
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=1e-300)


def test_channel_and_dilation_roundtrip():
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]])
    e1 = np.array([[0.0, 0.6], [0.0, 0.0]])
    ch = KrausChannel(in_dim=2, out_dim=2, kraus=(e0, e1))
    back = serialize.channel_from_obj(serialize.channel_to_obj(ch))
    assert back.trace_preserving
    result = channel_dilate(ch)
    again = serialize.dilation_from_obj(serialize.dilation_to_obj(result))
    np.testing.assert_allclose(again.unitary, result.unitary, rtol=1e-15, atol=1e-300)
    assert again.system_span == result.system_span
    assert again.ancilla_dim == result.ancilla_dim


def test_pairs_are_the_entrywise_floats():
    a = np.array([[0.0, -0.0 + 1e-300j], [complex(1, -0.0), -2.5 - 0.0j]])
    # the entrywise definition the stacked encoding replaces
    expected = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    assert serialize.matrix_to_obj(a)["data"] == expected
    assert json.dumps(serialize.matrix_to_obj(a)["data"]) == json.dumps(expected)
    assert serialize.vector_to_obj(a[1]) == expected[2:]
    # a transposed view is not C-contiguous; its pairs still follow row-major order
    assert serialize.matrix_to_obj(a.T)["data"] == [expected[i] for i in (0, 2, 1, 3)]
    assert json.dumps(serialize.vector_to_obj(a[1])) == json.dumps(expected[2:])


def written(tmp_path, obj) -> str:
    path = tmp_path / "out.json"
    serialize.dump(obj, path)
    return path.read_text(encoding="utf-8")


def json_dump_text(obj) -> str:
    fh = io.StringIO()
    json.dump(obj, fh, sort_keys=True)
    return fh.getvalue() + "\n"


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"b": [], "a": {}, "c": [[]]},
    {"z": {"y": [1, 2.5, -0.0, None, True, "é\n"], "x": {"w": (3, 4)}}, "a": 1e-300},
    [{"k": list(range(serialize._CHUNK))}, {"k": list(range(serialize._CHUNK + 1))}],
    {"data": [[float(i), -float(i)] for i in range(2 * serialize._CHUNK + 1)]},
    [[{"b": 1, "a": 2}] * (serialize._CHUNK + 1)],
])
def test_dump_bytes_match_json_dump(tmp_path, obj):
    assert written(tmp_path, obj) == json_dump_text(obj)


def test_dump_of_a_large_dilation_matches_json_dump(tmp_path):
    rng = rng_from_seed(107)
    q, _ = np.linalg.qr(complex_gaussian(rng, 256, 16))
    ch = KrausChannel(16, 16, tuple(q[16 * i:16 * (i + 1)] for i in range(16)))
    obj = serialize.dilation_to_obj(channel_dilate(ch))
    assert obj["unitary"]["rows"] == 272
    assert written(tmp_path, obj) == json_dump_text(obj)
