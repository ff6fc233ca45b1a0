import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_dilate import serialize
from schur_dilate.dilation import DilationResult, KrausChannel, Povm, channel_dilate
from schur_dilate.sampling import complex_gaussian, random_coisometry, rng_from_seed
from schur_dilate.scparams import (
    BlockShape,
    MatrixContractionParams,
    PositiveSCParams,
    RowColParams,
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


@pytest.mark.parametrize("kind, gammas, roots", [
    ("row", [np.eye(2)], None),             # 1 of its 2 gammas
    ("matrix", [np.eye(2)] * 5, None),      # one more than the 2 x 2 grid holds
    ("matrix", [np.eye(2), np.eye(3), np.eye(2), np.eye(2)], None),
    ("psd", [np.eye(2), np.eye(2)], [np.eye(2)] * 2),  # a gamma with no row left
    ("psd", [np.eye(2)], [np.eye(2), np.eye(3)]),
])
def test_params_from_obj_checks_gammas_against_the_shape(kind, gammas, roots):
    obj = {"kind": kind, "shape": {"row_dims": [2, 2], "col_dims": [2, 2]},
           "gammas": [serialize.matrix_to_obj(g) for g in gammas]}
    if kind == "row":
        obj["shape"]["row_dims"] = [2]
    if roots is not None:
        obj["diag_roots"] = [serialize.matrix_to_obj(r) for r in roots]
    with pytest.raises(ValueError):
        serialize.params_from_obj(obj)


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


def dilation_obj(**changes):
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]])
    e1 = np.array([[0.0, 0.6], [0.0, 0.0]])
    obj = serialize.dilation_to_obj(channel_dilate(KrausChannel(2, 2, (e0, e1))))
    return {**obj, **changes}


ONE = {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}


@pytest.mark.parametrize("load, obj", [
    (serialize.matrix_from_obj, {"rows": 2.9, "cols": True, "data": [[1.0, 0.0]] * 2}),
    (serialize.params_from_obj, {"kind": "row", "gammas": [ONE, ONE],
                                 "shape": {"row_dims": [True], "col_dims": [1.5, 1]}}),
    (serialize.povm_from_obj, {"dim": 2.5, "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [1.0, 0.0]]]}),
    (serialize.channel_from_obj, {"in_dim": 1.9, "out_dim": True, "kraus": [ONE]}),
    (serialize.dilation_from_obj, dilation_obj(ancilla_dim=2.5)),
    (serialize.dilation_from_obj, dilation_obj(out_dim=True)),
    (serialize.dilation_from_obj, dilation_obj(system_span=[0, 1.5])),
    (serialize.dilation_from_obj, dilation_obj(absorbing_blocks=[True])),
])
def test_fractional_and_boolean_sizes_are_rejected(load, obj):
    # int() would truncate them: 2.9 rows to 2, true to 1
    with pytest.raises(ValueError, match="must be an integer"):
        load(json.loads(json.dumps(obj)))


EFFECTS = [serialize.matrix_to_obj(np.diag(d)) for d in ([1.0, 0.0], [0.0, 1.0])]


@pytest.mark.parametrize("dim, message", [(7.5, "dim must be an integer"),
                                          (True, "dim must be an integer"),
                                          (5, "differs from dim"), (1, "differs from dim")])
def test_povm_effects_must_match_dim(dim, message):
    # the effects form once took its size from the effects, whatever dim said
    with pytest.raises(ValueError, match=message):
        serialize.povm_from_obj(json.loads(json.dumps({"dim": dim, "effects": EFFECTS})))
    assert serialize.povm_from_obj({"dim": 2, "effects": EFFECTS}).dim == 2


def test_integral_sizes_load_as_ints():
    m = serialize.matrix_from_obj({"rows": 1.0, "cols": np.int64(2), "data": [[1.0, 0.0]] * 2})
    assert m.shape == (1, 2)
    obj = {"kind": "row", "gammas": [ONE, ONE],
           "shape": {"row_dims": [1.0], "col_dims": [np.int32(1), 1]}}
    shape = serialize.params_from_obj(obj).shape
    assert shape == BlockShape((1,), (1, 1))
    assert all(type(d) is int for d in shape.row_dims + shape.col_dims)
    result = serialize.dilation_from_obj(dilation_obj(system_span=[0.0, 2.0]))
    assert result.system_span == (0, 2) and type(result.system_span[1]) is int


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


# Floats where the text of repr changes form: signed zeros, subnormals and the
# smallest normal, and both sides of the switches to exponent notation at
# 1e-4 (1e-05 is the first exponent form) and at 1e16.
SPECIAL_FLOATS = tuple(
    sign * x
    for x in (0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
              1e-5, float(np.nextafter(1e-4, 0)), 1e-4,
              float(np.nextafter(1e16, 0)), 1e16, float(np.nextafter(1e16, np.inf)))
    for sign in (1.0, -1.0))
# 0 x n and n x 0 matrices, small ones, and, as often, data longer than
# 2 * _CHUNK pairs
SHAPES = st.one_of(st.sampled_from(((0, 3), (3, 0), (0, 0), (1, 1), (2, 3), (4, 4))),
                   st.just((45, 46)))


@st.composite
def documents(draw):
    """A domain object of every writer kind, its arrays filled with floats of
    all magnitudes, the special floats in drawn places and, in some, one
    non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    specials = draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=8))
    nonfinite = [draw(st.sampled_from((None, None, None, np.nan, np.inf, -np.inf)))]

    def matrix(rows, cols):
        floats = rng.standard_normal(2 * rows * cols) * 10.0 ** rng.integers(-320, 300,
                                                                           2 * rows * cols)
        if floats.size:
            for x in specials:
                if rng.random() < 0.5:
                    floats[rng.integers(floats.size)] = x
            if nonfinite[0] is not None:
                floats[0], nonfinite[0] = nonfinite[0], None
        return floats.view(complex).reshape(rows, cols)

    def dims():
        return draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))

    kind = draw(st.sampled_from(("matrix", "row", "column", "grid", "psd", "povm",
                                 "channel", "dilation")))
    if kind == "matrix":
        return kind, matrix(*draw(SHAPES))
    if kind in ("row", "column"):
        r, cs = draw(st.integers(1, 3)), dims()
        gammas = tuple(matrix(r, c) if kind == "row" else matrix(c, r) for c in cs)
        shape = BlockShape((r,), tuple(cs)) if kind == "row" else BlockShape(tuple(cs), (r,))
        return kind, RowColParams(kind, gammas, shape)
    if kind == "grid":
        rs, cs = dims(), dims()
        grid = tuple(tuple(matrix(r, c) for c in cs) for r in rs)
        return kind, MatrixContractionParams(grid, BlockShape(tuple(rs), tuple(cs)))
    if kind == "psd":
        ds = dims()
        rows = tuple(tuple(matrix(d, e) for e in ds[i + 1:]) for i, d in enumerate(ds))
        roots = tuple(matrix(d, d) for d in ds)
        return kind, PositiveSCParams(roots, rows, BlockShape(tuple(ds), tuple(ds)))
    # the validated objects start valid and are then given the drawn arrays:
    # the writers format whatever arrays an object holds
    if kind == "povm":
        obj, dim = Povm.from_vectors(list(np.eye(2))), draw(st.integers(1, 3))
        count = draw(st.integers(1, 4))
        if draw(st.booleans()):
            fields = {"vectors": tuple(matrix(1, dim)[0] for _ in range(count))}
        else:
            fields = {"vectors": None, "effects": tuple(matrix(dim, dim) for _ in range(count))}
        fields["dim"] = dim
    elif kind == "channel":
        obj = KrausChannel(2, 2, (np.eye(2),))
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        fields = {"in_dim": n, "out_dim": m,
                  "kraus": tuple(matrix(m, n) for _ in range(draw(st.integers(1, 3))))}
    else:
        obj = DilationResult("channel", np.eye(4), (0, 2), 2, freedom=(np.eye(2), np.eye(4)),
                             out_dim=2, kraus_count=1, absorbing_blocks=(1,))
        fields = {"unitary": matrix(*draw(SHAPES)),
                  "freedom": (matrix(2, 2), matrix(4, 4))}
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return kind, obj


TO_OBJ = {"matrix": serialize.matrix_to_obj, "row": serialize.params_to_obj,
          "column": serialize.params_to_obj, "grid": serialize.params_to_obj,
          "psd": serialize.params_to_obj, "povm": serialize.povm_to_obj,
          "channel": serialize.channel_to_obj, "dilation": serialize.dilation_to_obj}
PAIR = re.compile(r"\[[^][]*, [^][]*\]")


def dumped_pieces(obj) -> list:
    """The pieces ``dump`` passes to ``writelines``, then the final newline."""
    pieces = []

    class Recorder(io.StringIO):
        def writelines(self, lines):
            pieces.extend(lines)

        def write(self, text):
            pieces.append(text)

    serialize.open = lambda *args, **kwargs: Recorder()
    try:
        serialize.dump(obj, "unused.json")
    finally:
        del serialize.open
    return pieces


def psd16():
    """120 gammas of 16 pairs: more pairs than one piece holds."""
    rng = rng_from_seed(108)
    g = complex_gaussian(rng, 64, 64)
    return psd_parametrize(dagger(g) @ g, BlockShape((4,) * 16, (4,) * 16))


def long_nonfinite():
    a = complex_gaussian(rng_from_seed(109), 45, 46)
    a[44, 45] = complex(0.0, np.nan)
    return a


def psd48():
    """1128 one-pair gammas: more matrices than _CHUNK, written as runs."""
    g = complex_gaussian(rng_from_seed(110), 96, 48)
    return psd_parametrize(dagger(g) @ g, BlockShape((1,) * 48, (1,) * 48))


def mixed_grid(nan=False):
    """A grid whose gamma shapes change along its column-major list, one
    gamma holding a NaN if ``nan``."""
    rng = rng_from_seed(111)
    rows, cols = (2, 1, 3), (1, 2, 2, 1)
    grid = [[complex_gaussian(rng, p, q) for q in cols] for p in rows]
    if nan:
        grid[2][1][1, 0] = complex(np.nan, 0.0)
    return MatrixContractionParams(grid, BlockShape(rows, cols))


@settings(max_examples=150, deadline=None)
@given(documents())
@example(("psd", psd16()))
@example(("matrix", long_nonfinite()))
@example(("psd", psd48()))
@example(("grid", mixed_grid()))
@example(("grid", mixed_grid(nan=True)))
def test_dump_from_the_arrays_matches_json_dump_of_the_public_tree(doc):
    kind, obj = doc
    pieces = dumped_pieces(obj)
    assert "".join(pieces) == json_dump_text(TO_OBJ[kind](obj))
    # no piece holds more than one _CHUNK-pair chunk's text, the text of
    # the matrices around their pairs included: the longest float text is
    # 24 characters, so a pair with its separator takes 54
    for piece in pieces:
        assert len(PAIR.findall(piece)) <= serialize._CHUNK
        assert len(piece) <= 54 * serialize._CHUNK


def test_small_matrices_share_pieces():
    # psd16 holds 136 matrices of 16 pairs, 2176 pairs in all: one % call
    # per _CHUNK pairs, whatever the leaf sizes, gives at most 4 pieces
    # (3 here), then the newline
    pieces = dumped_pieces(psd16())
    assert len(pieces) <= 5 and pieces[-1] == "\n"
