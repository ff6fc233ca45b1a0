"""JSON wire formats.

Matrix format, used everywhere:

    {"rows": r, "cols": c, "data": [[re, im], ...]}   # row-major, flat

Parameter sets:

    {"kind": "row"|"column"|"matrix"|"psd",
     "shape": {"row_dims": [...], "col_dims": [...]},
     "gammas": [matrix, ...],
     "diag_roots": [matrix, ...]}        # psd kind only

``gammas`` ordering: row/column kinds list their parameters in block
order; the matrix kind lists the grid column-major (block column 1 top to
bottom, then column 2, ...); the psd kind lists the strict upper triangle
row-major (G_12, G_13, ..., G_23, ...).

POVMs: {"dim": m, "vectors": [[[re, im], ...], ...]} or
{"dim": m, "effects": [matrix, ...]}, every effect m x m.
Channels: {"in_dim": n, "out_dim": m, "kraus": [matrix, ...]}.
Dilations serialize the unitary plus embedding metadata.

Floats are written as ``repr`` writes them, the shortest text that reads
back as the same double, so re-parsed values match bit for bit.

``dump`` writes what ``json.dump(obj, fh, sort_keys=True)`` plus a newline
would.  Handed a domain object, it has the encoder write the ``*_to_obj``
tree with a numbered hole, the string ``"\\0<i>"``, for each array and
each list of matrices, and fills the holes from the arrays: an array with
its ``[re, im]`` pairs, a list with its matrices, neighbours of one shape
written as one run (one stack, one ``tolist`` and one cached template for
the run).  The text is grouped across holes into pieces of at most
``_CHUNK`` pairs, one ``%`` call each, so no whole document is held as one
string.
"""

from __future__ import annotations

import functools
import itertools
import json
import re

import numpy as np

from .dilation import DilationResult, KrausChannel, Povm
from .linalg import DEFAULT_TOL, Tolerances, _as_size
from .scparams import (
    BlockShape,
    MatrixContractionParams,
    PositiveSCParams,
    RowColParams,
)


def _floats(a) -> np.ndarray:
    """The ``(N, 2)`` float view of a complex array: its row-major
    ``[re, im]`` pairs."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2)


def _pairs(a) -> list:
    """The list leaf of the public ``*_to_obj`` trees: the pairs as Python
    floats (``-0.0`` kept)."""
    return _floats(a).tolist()


_PARAMS = (RowColParams, MatrixContractionParams, PositiveSCParams)


def _tree(obj, leaf, matrices=None):
    """The ``*_to_obj`` tree of a matrix, parameter set, POVM, channel or
    dilation, with ``leaf`` making the data of every matrix and vector, and
    ``matrices`` every list of matrices (by default, the list of their
    trees)."""
    if matrices is None:
        def matrices(arrays):
            return [_tree(a, leaf) for a in arrays]
    if isinstance(obj, Povm):
        if obj.vectors is None:
            return {"dim": obj.dim, "effects": matrices(obj.effects)}
        return {"dim": obj.dim, "vectors": [leaf(v) for v in obj.vectors]}
    if isinstance(obj, KrausChannel):
        return {"in_dim": obj.in_dim, "out_dim": obj.out_dim, "kraus": matrices(obj.kraus)}
    if isinstance(obj, DilationResult):
        tree = {"kind": obj.kind, "unitary": _tree(obj.unitary, leaf),
                "system_span": list(obj.system_span), "ancilla_dim": obj.ancilla_dim}
        if obj.out_dim is not None:
            tree["out_dim"] = obj.out_dim
        if obj.kraus_count is not None:
            tree["kraus_count"] = obj.kraus_count
        if obj.absorbing_blocks:
            tree["absorbing_blocks"] = list(obj.absorbing_blocks)
        if obj.freedom is not None:
            tree["freedom"] = matrices(obj.freedom)
        return tree
    if isinstance(obj, _PARAMS):
        if isinstance(obj, RowColParams):
            kind, gammas = obj.orientation, obj.gammas
        elif isinstance(obj, MatrixContractionParams):
            n, m = len(obj.shape.row_dims), len(obj.shape.col_dims)
            kind, gammas = "matrix", [obj.gammas[i][j] for j in range(m) for i in range(n)]
        else:
            kind, gammas = "psd", [g for row in obj.gammas for g in row]
        tree = {"kind": kind,
                "shape": {"row_dims": list(obj.shape.row_dims),
                          "col_dims": list(obj.shape.col_dims)},
                "gammas": matrices(gammas)}
        if kind == "psd":
            tree["diag_roots"] = matrices(obj.diag_roots)
        return tree
    rows, cols = np.shape(obj)
    return {"rows": rows, "cols": cols, "data": leaf(obj)}


def _complex_array(pairs) -> np.ndarray:
    """Parse ``[re, im]`` number pairs; strings, nulls and booleans are not
    numbers.

    ``complex`` accepts ``True`` and ``False``, so pairs holding a boolean are
    left out in the same pass and the shorter result is the error.
    """
    try:
        values = [complex(re, im) for re, im in pairs
                  if type(re) is not bool and type(im) is not bool]
    except TypeError as exc:
        raise ValueError(f"entries must be [re, im] number pairs: {exc}") from exc
    if len(values) != len(pairs):
        raise ValueError("entries must be [re, im] number pairs, not booleans")
    return np.array(values, dtype=complex)


def matrix_to_obj(a: np.ndarray) -> dict:
    return _tree(a, _pairs)


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols = _as_size(obj["rows"], "rows"), _as_size(obj["cols"], "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = _complex_array(data)
    if flat.size and not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix data contains non-finite entries")
    return flat.reshape(rows, cols)


def vector_to_obj(v: np.ndarray) -> list:
    return _pairs(v)


def vector_from_obj(obj) -> np.ndarray:
    return _complex_array(obj)


def params_to_obj(params) -> dict:
    if not isinstance(params, _PARAMS):
        raise TypeError(f"unsupported parameter object {type(params)!r}")
    return _tree(params, _pairs)


def params_from_obj(obj: dict):
    kind = obj["kind"]
    shape = BlockShape(tuple(obj["shape"]["row_dims"]), tuple(obj["shape"]["col_dims"]))
    gammas = [matrix_from_obj(g) for g in obj.get("gammas", [])]
    if kind in ("row", "column"):
        return RowColParams(kind, tuple(gammas), shape)
    # a count that does not fit the shape leaves a row that fails its check
    n = len(shape.row_dims)
    if kind == "matrix":
        return MatrixContractionParams(tuple(tuple(gammas[i::n]) for i in range(n)), shape)
    if kind == "psd":
        it = iter(gammas)
        rows = [tuple(itertools.islice(it, n - i - 1)) for i in range(n - 1)] + [tuple(it)]
        roots = tuple(matrix_from_obj(r) for r in obj["diag_roots"])
        return PositiveSCParams(roots, tuple(rows), shape)
    raise ValueError(f"unknown params kind {kind!r}")


def povm_to_obj(povm: Povm) -> dict:
    return _tree(povm, _pairs)


def povm_from_obj(obj: dict, tol: Tolerances = DEFAULT_TOL) -> Povm:
    dim = _as_size(obj["dim"], "dim")
    if "vectors" in obj:
        vs = [vector_from_obj(v) for v in obj["vectors"]]
        if any(v.shape != (dim,) for v in vs):
            raise ValueError("vector length differs from dim")
        return Povm.from_vectors(vs)
    effects = [matrix_from_obj(e) for e in obj["effects"]]
    if any(e.shape != (dim, dim) for e in effects):
        raise ValueError("effect shape differs from dim x dim")
    return Povm.from_effects(effects, tol)


def channel_to_obj(ch: KrausChannel) -> dict:
    return _tree(ch, _pairs)


def channel_from_obj(obj: dict) -> KrausChannel:
    return KrausChannel(
        in_dim=_as_size(obj["in_dim"], "in_dim"),
        out_dim=_as_size(obj["out_dim"], "out_dim"),
        kraus=tuple(matrix_from_obj(e) for e in obj["kraus"]),
    )


def dilation_to_obj(result: DilationResult) -> dict:
    return _tree(result, _pairs)


def dilation_from_obj(obj: dict) -> DilationResult:
    freedom = None
    if "freedom" in obj:
        freedom = (matrix_from_obj(obj["freedom"][0]),
                   matrix_from_obj(obj["freedom"][1]))
    counts = {k: _as_size(obj[k], k) for k in ("out_dim", "kraus_count") if obj.get(k) is not None}
    return DilationResult(
        kind=obj["kind"],
        unitary=matrix_from_obj(obj["unitary"]),
        system_span=tuple(_as_size(i, "system_span") for i in obj["system_span"]),
        ancilla_dim=_as_size(obj["ancilla_dim"], "ancilla_dim"),
        freedom=freedom,
        absorbing_blocks=tuple(_as_size(b, "absorbing_blocks") for b in
                               obj.get("absorbing_blocks", ())),
        **counts,
    )


_CHUNK = 1024  # float pairs per % call
_PAIR_TEXT = 54  # longest "[re, im]" text, 24-character floats, plus its ", "
_ROOM = _PAIR_TEXT * _CHUNK  # characters per % call
_HOLE = re.compile(r'"\\u0000(\d+)"')  # a hole as json.dumps writes it


@functools.lru_cache(maxsize=256)
def _template(pairs: int, head: str) -> str:
    return head + ", ".join(["[%r, %r]"] * pairs)


def _matrix_head(rows: int, cols: int) -> tuple[str, str]:
    """A matrix's text before and after its data, as ``json.dumps`` writes it."""
    return f'{{"cols": {cols}, "data": [', f'], "rows": {rows}}}'


@functools.lru_cache(maxsize=256)
def _run_template(count: int, rows: int, cols: int, head: str) -> str:
    before, after = _matrix_head(rows, cols)
    return head + ", ".join([before + _template(rows * cols, "") + after] * count)


def _data_runs(floats):
    """An array's pairs as ``(format, values, cost)`` runs, ``_CHUNK`` at a
    time."""
    for start in range(0, len(floats), _CHUNK):
        head, chunk = ", " if start else "", floats[start:start + _CHUNK]
        if np.isfinite(chunk).all():
            yield _template(len(chunk), head), chunk.ravel().tolist(), _PAIR_TEXT * len(chunk)
        else:  # the encoder writes NaN and Infinity
            yield head + json.dumps(chunk.tolist())[1:-1], [], _PAIR_TEXT * len(chunk)


def _matrix_runs(arrays):
    """A list of matrices as ``(format, values, cost)`` runs: neighbours of
    one shape together, as many as cost at most ``_ROOM`` with their own
    text, and a matrix too large for that alone, its data in ``_data_runs``."""
    start = 0
    while start < len(arrays):
        head, (rows, cols) = ", " if start else "", np.shape(arrays[start])
        before, after = _matrix_head(rows, cols)
        cost = _PAIR_TEXT * rows * cols + len(before) + len(after) + 2
        if cost > _ROOM:
            yield head + before, [], len(head + before)
            yield from _data_runs(_floats(arrays[start]))
            yield after, [], len(after)
            start += 1
            continue
        end = start + 1
        while (end < len(arrays) and end - start < _ROOM // cost
               and np.shape(arrays[end]) == (rows, cols)):
            end += 1
        run = arrays[start:end]
        floats = _floats(np.stack(run))
        if np.isfinite(floats).all():
            template = _run_template(len(run), rows, cols, head)
            yield template, floats.ravel().tolist(), cost * len(run)
        else:  # the encoder writes NaN and Infinity
            text = ", ".join(json.dumps(_tree(a, _pairs), sort_keys=True) for a in run)
            yield head + text, [], cost * len(run)
        start = end


def _runs(parts, holes):
    """The document as ``(format, values, cost)`` runs: the skeleton text
    between holes, with the holes' brackets, and each hole's runs, an
    array's pairs (``_data_runs``) or a list's matrices (``_matrix_runs``).
    ``cost`` bounds the run's length, a pair being charged ``_PAIR_TEXT``
    characters."""
    for i, part in enumerate(parts):
        if i % 2 == 0:
            text = ("]" if i else "") + part + ("[" if i < len(parts) - 1 else "")
            yield text.replace("%", "%%"), [], len(text)
            continue
        hole = holes[int(part)]
        yield from _matrix_runs(hole) if isinstance(hole, list) else _data_runs(hole)


def _pieces(runs):
    """Group ``(format, values, cost)`` runs into pieces costing at most
    ``_ROOM`` characters, one ``%`` call each."""
    fmt, values, room = [], [], _ROOM
    for text, vals, cost in runs:
        if cost > room and fmt:
            yield "".join(fmt) % tuple(values)
            fmt, values, room = [], [], _ROOM
        fmt.append(text)
        values += vals
        room -= cost
    yield "".join(fmt) % tuple(values)


def dump(obj, path) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, sort_keys=True)`` plus a newline
    would, byte for byte.

    ``obj`` is a JSON tree, or a 2-D ndarray, parameter set, ``Povm``,
    ``KrausChannel`` or ``DilationResult``, written as its ``*_to_obj``
    tree would be: the encoder writes the tree with a numbered hole for
    each array and each list of matrices, and the holes are filled from the
    arrays.
    """
    if isinstance(obj, (dict, list, tuple)):
        pieces = json.JSONEncoder(sort_keys=True).iterencode(obj)  # as json.dump does
    else:
        holes = []

        def hole(value):
            holes.append(value)
            return f"\0{len(holes) - 1}"

        skeleton = json.dumps(_tree(obj, lambda a: hole(_floats(a)), lambda a: hole(list(a))),
                              sort_keys=True)
        pieces = _pieces(_runs(_HOLE.split(skeleton), holes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
