"""Independent output checks for the benchmark ops.

Every check reads the file an op wrote with the standard ``json`` module and
verifies it with plain numpy, never with the library's own verifiers or
serializers.  A check returns ``(ok, rel_err, message)``: ``rel_err`` is the
worst relative error it measured, which feeds ``accuracy_digits``.
"""

from __future__ import annotations

import json

import numpy as np

PSD_TOL = 1e-10      # library default Tolerances.psd_tol
RECON_TOL = 1e-8     # library default Tolerances.recon_tol
UNITARY_TOL = 1e-9   # per-entry scale, relative to ||I||_F
MATCH_TOL = 1e-9


def matrix_to_obj(a: np.ndarray) -> dict:
    """The library's matrix wire format; float repr makes it round-trip exactly."""
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": np.stack([flat.real, flat.imag], axis=1).tolist()}


def matrix_from_obj(obj: dict) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(err: float, scale: float) -> float:
    return float(err) / max(float(scale), 1e-300)


def _herm_root(h: np.ndarray) -> np.ndarray:
    """Positive root of a Hermitian matrix, negative rounding clamped to 0."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _defect_star(g: np.ndarray) -> np.ndarray:
    return _herm_root(np.eye(g.shape[0]) - g @ g.conj().T)


def _defect(g: np.ndarray) -> np.ndarray:
    return _herm_root(np.eye(g.shape[1]) - g.conj().T @ g)


def _row_reference(gammas) -> np.ndarray:
    """T_k = D_{G_1*} ... D_{G_(k-1)*} G_k."""
    acc = np.eye(gammas[0].shape[0], dtype=complex)
    blocks = []
    for g in gammas:
        blocks.append(acc @ g)
        acc = acc @ _defect_star(g)
    return np.hstack(blocks)


def _col_reference(gammas) -> np.ndarray:
    """T_k = G_k D_{G_(k-1)} ... D_{G_1}."""
    acc = np.eye(gammas[0].shape[1], dtype=complex)
    blocks = []
    for g in gammas:
        blocks.append(g @ acc)
        acc = _defect(g) @ acc
    return np.vstack(blocks)


def check_param(path, kind: str, a: np.ndarray, dims, reconstruct: bool):
    """Parameter files: gamma norms, diagonal roots, and independent round-trips."""
    obj = _load(path)
    scale = np.linalg.norm(a)
    if reconstruct:
        r = matrix_from_obj(obj)
        if r.shape != a.shape:
            return False, np.inf, f"reconstruction shape {r.shape} != {a.shape}"
        err = _rel(np.linalg.norm(r - a), scale)
        return err <= RECON_TOL, err, f"round-trip error {err:.2e}"
    if obj.get("kind") != kind:
        return False, np.inf, f"params kind {obj.get('kind')!r} != {kind!r}"
    gammas = [matrix_from_obj(g) for g in obj["gammas"]]
    n = len(dims)
    expected = {"psd": n * (n - 1) // 2, "matrix": n * n}.get(kind, n)
    if len(gammas) != expected:
        return False, np.inf, f"{len(gammas)} gammas, expected {expected}"
    worst_norm = max(np.linalg.norm(g, 2) for g in gammas)
    if worst_norm > 1.0 + PSD_TOL:
        return False, np.inf, f"gamma norm {worst_norm:.15f} exceeds 1"
    err = 0.0
    if kind == "psd":
        off = np.concatenate([[0], np.cumsum(dims)])
        for i, root in enumerate(matrix_from_obj(r) for r in obj["diag_roots"]):
            w = np.linalg.eigvalsh((root + root.conj().T) / 2)
            if w.min() < -PSD_TOL * max(1.0, abs(w).max()):
                return False, np.inf, f"diagonal root {i} not PSD ({w.min():.2e})"
            block = a[off[i]:off[i + 1], off[i]:off[i + 1]]
            err = max(err, _rel(np.linalg.norm(root @ root - block),
                                max(np.linalg.norm(block), scale * np.finfo(float).eps)))
    elif kind in ("row", "column"):
        ref = _row_reference(gammas) if kind == "row" else _col_reference(gammas)
        err = _rel(np.linalg.norm(ref - a), scale)
    return err <= RECON_TOL, err, f"independent check error {err:.2e}"


def check_unitary(u: np.ndarray) -> float:
    k = u.shape[0]
    return _rel(np.linalg.norm(u.conj().T @ u - np.eye(k)), np.sqrt(k))


def check_channel(path, kraus, states, refs):
    """Unitarity, then Tr_anc U (e0 e0* (x) rho) U* against the direct Kraus sum."""
    obj = _load(path)
    u = matrix_from_obj(obj["unitary"])
    n = kraus[0].shape[1]
    m = kraus[0].shape[0]
    anc = int(obj["ancilla_dim"])
    if u.shape != (m * anc, m * anc) or obj["system_span"] != [0, n]:
        return False, np.inf, f"dilation layout {u.shape} {obj['system_span']}"
    err = check_unitary(u)
    if err > UNITARY_TOL:
        return False, err, f"unitarity error {err:.2e}"
    head = u[:, :n]
    for rho, ref in zip(states, refs):
        y = (head @ rho @ head.conj().T).reshape(anc, m, anc, m)
        out = np.einsum("aiaj->ij", y)
        e = _rel(np.linalg.norm(out - ref), np.linalg.norm(ref))
        err = max(err, e)
    return err <= MATCH_TOL, err, f"channel simulation error {err:.2e}"


def check_povm(path, vectors: np.ndarray):
    """Column-projector compressions: O(k m^2), unlike the library's k^4 verifier.

    ``vectors`` is m x n with the effects' vectors as columns.
    """
    obj = _load(path)
    u = matrix_from_obj(obj["unitary"])
    m, n = vectors.shape
    if u.shape != (m + n, m + n) or obj["system_span"] != [0, m]:
        return False, np.inf, f"dilation layout {u.shape} {obj['system_span']}"
    err = check_unitary(u)
    if err > UNITARY_TOL:
        return False, err, f"unitarity error {err:.2e}"
    top = u[:m, :]
    effects = np.einsum("ik,jk->kij", vectors, vectors.conj())
    compressed = np.einsum("ik,jk->kij", top, top.conj())
    scale = np.abs(effects).max()
    err = max(err, _rel(np.abs(compressed[:n] - effects).max(), scale),
              _rel(np.abs(compressed[n:]).max(), scale))
    return err <= MATCH_TOL, err, f"compression error {err:.2e}"


def ampliation_min_eig(x: np.ndarray, k: int, witness: str) -> tuple[float, float]:
    """Smallest eigenvalue of (I_k (x) phi)(x) from explicit block formulas.

    Returns it with the spectral scale of the output.  ``phi`` is the
    transpose, the reduction map tr(X) I - X, or the Choi map on 3 x 3 blocks.
    """
    n = x.shape[0] // k
    blocks = x.reshape(k, n, k, n)          # blocks[a, :, b, :] is block (a, b)
    if witness == "transpose":
        y = blocks.transpose(0, 3, 2, 1)
    elif witness == "reduction":
        tr = np.einsum("aibi->ab", blocks)
        y = tr[:, None, :, None] * np.eye(n)[None, :, None, :] - blocks
    else:  # choi3
        d = np.einsum("aibi->abi", blocks)
        y = -blocks.astype(complex)
        for i in range(3):
            y[:, i, :, i] += 2 * d[..., i] + d[..., (i + 1) % 3]
    y = y.reshape(k * n, k * n)
    w = np.linalg.eigvalsh((y + y.conj().T) / 2)
    return float(w[0]), float(np.abs(w).max())


def check_witness(path, trials: int, expect_pass: bool, refs: dict):
    """Trial lines, summary consistency, and numpy ampliation references.

    ``refs`` maps a trial index to ``(min_eig, scale)`` computed beforehand.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    if "schur_dilate_version" not in lines[0]:
        return False, np.inf, "missing version header"
    body, summary = lines[1:-1], lines[-1]
    if len(body) != trials or not summary.get("summary"):
        return False, np.inf, f"{len(body)} trial lines, expected {trials}"
    passed = [t["passed"] for t in body]
    if any(p != expect_pass for p in passed):
        return False, np.inf, f"trial outcome differs from expected {expect_pass}"
    worst = min(t["min_eig"] for t in body)
    if summary["all_passed"] != all(passed) or summary["worst_min_eig"] != worst:
        return False, np.inf, "summary disagrees with trial lines"
    err = 0.0
    for trial, (ref, scale) in refs.items():
        err = max(err, _rel(abs(body[trial]["min_eig"] - ref), max(1.0, scale)))
    return err <= MATCH_TOL, err, f"ampliation min-eigenvalue error {err:.2e}"
