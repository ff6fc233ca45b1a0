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

POVMs: {"dim": m, "vectors": [[[re, im], ...], ...]}.
Channels: {"in_dim": n, "out_dim": m, "kraus": [matrix, ...]}.
Dilations serialize the unitary plus embedding metadata.

Decimal round-trips are not bit-exact; re-parsed values match within
1e-15 relative.
"""

from __future__ import annotations

import json

import numpy as np

from .dilation import DilationResult, KrausChannel, Povm
from .linalg import DEFAULT_TOL, Tolerances
from .scparams import (
    BlockShape,
    MatrixContractionParams,
    PositiveSCParams,
    RowColParams,
)


def _pairs(a: np.ndarray) -> list:
    """Row-major ``[re, im]`` pairs of Python floats (``-0.0`` kept)."""
    return np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist()


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
    a = np.asarray(a, dtype=complex)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _pairs(a)}


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = _complex_array(data)
    if flat.size and not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix data contains non-finite entries")
    return flat.reshape(rows, cols)


def vector_to_obj(v: np.ndarray) -> list:
    return _pairs(np.asarray(v, dtype=complex))


def vector_from_obj(obj) -> np.ndarray:
    return _complex_array(obj)


def params_to_obj(params) -> dict:
    shape_obj = {
        "row_dims": list(params.shape.row_dims),
        "col_dims": list(params.shape.col_dims),
    }
    if isinstance(params, RowColParams):
        return {
            "kind": params.orientation,
            "shape": shape_obj,
            "gammas": [matrix_to_obj(g) for g in params.gammas],
        }
    if isinstance(params, MatrixContractionParams):
        n = len(params.shape.row_dims)
        m = len(params.shape.col_dims)
        gammas = [matrix_to_obj(params.gammas[i][j])
                  for j in range(m) for i in range(n)]
        return {"kind": "matrix", "shape": shape_obj, "gammas": gammas}
    if isinstance(params, PositiveSCParams):
        gammas = [matrix_to_obj(g) for row in params.gammas for g in row]
        return {
            "kind": "psd",
            "shape": shape_obj,
            "gammas": gammas,
            "diag_roots": [matrix_to_obj(r) for r in params.diag_roots],
        }
    raise TypeError(f"unsupported parameter object {type(params)!r}")


def params_from_obj(obj: dict):
    kind = obj["kind"]
    shape = BlockShape(tuple(obj["shape"]["row_dims"]), tuple(obj["shape"]["col_dims"]))
    gammas = [matrix_from_obj(g) for g in obj.get("gammas", [])]
    if kind in ("row", "column"):
        return RowColParams(kind, tuple(gammas), shape)
    if kind == "matrix":
        n, m = len(shape.row_dims), len(shape.col_dims)
        if len(gammas) != n * m:
            raise ValueError(f"matrix kind expects {n * m} gammas, got {len(gammas)}")
        grid = tuple(tuple(gammas[j * n + i] for j in range(m)) for i in range(n))
        return MatrixContractionParams(grid, shape)
    if kind == "psd":
        n = len(shape.row_dims)
        expected = n * (n - 1) // 2
        if len(gammas) != expected:
            raise ValueError(f"psd kind expects {expected} gammas, got {len(gammas)}")
        it = iter(gammas)
        rows = [tuple(next(it) for _ in range(n - i - 1)) for i in range(n)]
        roots = tuple(matrix_from_obj(r) for r in obj["diag_roots"])
        return PositiveSCParams(roots, tuple(rows), shape)
    raise ValueError(f"unknown params kind {kind!r}")


def povm_to_obj(povm: Povm) -> dict:
    if povm.vectors is None:
        return {"dim": povm.dim, "effects": [matrix_to_obj(e) for e in povm.effects]}
    return {"dim": povm.dim, "vectors": [vector_to_obj(v) for v in povm.vectors]}


def povm_from_obj(obj: dict, tol: Tolerances = DEFAULT_TOL) -> Povm:
    if "vectors" in obj:
        vs = [vector_from_obj(v) for v in obj["vectors"]]
        if any(v.shape != (int(obj["dim"]),) for v in vs):
            raise ValueError("vector length differs from dim")
        return Povm.from_vectors(vs)
    return Povm.from_effects([matrix_from_obj(e) for e in obj["effects"]], tol)


def channel_to_obj(ch: KrausChannel) -> dict:
    return {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": [matrix_to_obj(e) for e in ch.kraus],
    }


def channel_from_obj(obj: dict) -> KrausChannel:
    return KrausChannel(
        in_dim=int(obj["in_dim"]),
        out_dim=int(obj["out_dim"]),
        kraus=tuple(matrix_from_obj(e) for e in obj["kraus"]),
    )


def dilation_to_obj(result: DilationResult) -> dict:
    obj = {
        "kind": result.kind,
        "unitary": matrix_to_obj(result.unitary),
        "system_span": list(result.system_span),
        "ancilla_dim": result.ancilla_dim,
    }
    if result.out_dim is not None:
        obj["out_dim"] = result.out_dim
    if result.kraus_count is not None:
        obj["kraus_count"] = result.kraus_count
    if result.absorbing_blocks:
        obj["absorbing_blocks"] = list(result.absorbing_blocks)
    if result.freedom is not None:
        obj["freedom"] = [matrix_to_obj(result.freedom[0]),
                          matrix_to_obj(result.freedom[1])]
    return obj


def dilation_from_obj(obj: dict) -> DilationResult:
    freedom = None
    if "freedom" in obj:
        freedom = (matrix_from_obj(obj["freedom"][0]),
                   matrix_from_obj(obj["freedom"][1]))
    return DilationResult(
        kind=obj["kind"],
        unitary=matrix_from_obj(obj["unitary"]),
        system_span=tuple(obj["system_span"]),
        ancilla_dim=int(obj["ancilla_dim"]),
        freedom=freedom,
        out_dim=obj.get("out_dim"),
        kraus_count=obj.get("kraus_count"),
        absorbing_blocks=tuple(obj.get("absorbing_blocks", ())),
    )


_CHUNK = 1024  # list items per json.dumps call when writing long lists


def _encode(obj):
    """Yield the text of ``json.dumps(obj, sort_keys=True)`` in pieces.

    ``json.dump`` runs the pure-Python encoder.  This walk opens dicts and
    hands long lists to the C encoder slice by slice, and every other value
    whole, so the document is never held as one string.
    """
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _encode(obj[key])
        yield "}"
    elif isinstance(obj, (list, tuple)) and len(obj) > _CHUNK:
        yield "["
        for start in range(0, len(obj), _CHUNK):
            yield (", " if start else "") + json.dumps(
                obj[start:start + _CHUNK], sort_keys=True)[1:-1]
        yield "]"
    else:
        yield json.dumps(obj, sort_keys=True)


def dump(obj: dict, path) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, sort_keys=True)`` plus a newline
    would, byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_encode(obj))
        fh.write("\n")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
