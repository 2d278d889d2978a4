"""Independent checks of the program's outputs.

Every reference value here is computed from the benchmark's own sparse
matrices with scipy routines that the program does not use for the same
quantity: ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2),
2011) for the exponential, sparse LU for the resolvent and ARPACK for Perron
vectors.  The other checks test properties the method must have.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# max-norm tolerance for masked estimates; the exact small-core route meets it
# with errors near 1e-15, and 1e-8 would let a non-invariant Krylov result pass
REL_TOL = 1e-10
# Perron vectors come from power iteration stopped at a 1e-10 step difference
PERRON_VECTOR_TOL = 1e-8
PERRON_RESIDUAL_TOL = 1e-8
# columns per expm_multiply / LU solve block; bounds the reference's memory
BLOCK = 128


# -- masked matrices ---------------------------------------------------------


def column_mask(a: sp.csr_matrix, J: np.ndarray) -> sp.csr_matrix:
    """A with every column outside J zeroed."""
    keep = np.zeros(a.shape[0])
    keep[np.asarray(J)] = 1.0
    return (a @ sp.diags(keep)).tocsr()


def arrow_mask(a: sp.csr_matrix, J: np.ndarray) -> sp.csr_matrix:
    """A keeping the entries (i, j) with i or j in J."""
    inj = np.zeros(a.shape[0], dtype=bool)
    inj[np.asarray(J)] = True
    coo = a.tocoo()
    keep = inj[coo.row] | inj[coo.col]
    return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=a.shape)


class MatfunReference:
    """Row sums and selected diagonal entries of f(M) for f in {exp-1, katz}.

    ``kind`` is ``"exp"`` (f(t) = e^{gamma t} - 1) or ``"katz"``
    (f(t) = 1/(1 - gamma t) - 1).  Diagonal entries are computed on demand
    and cached, so the nodes a check needs can depend on the output checked.
    """

    def __init__(self, m: sp.csr_matrix, kind: str, gamma: float):
        self.n = m.shape[0]
        self.kind = kind
        self._diag: dict[int, float] = {}
        if kind == "exp":
            self._gm = (gamma * m).tocsc()
        elif kind == "katz":
            self._lu = spla.splu((sp.identity(self.n, format="csc") - gamma * m).tocsc())
        else:
            raise ValueError(f"unknown function kind {kind!r}")
        self.rowsum = self._apply(np.ones((self.n, 1)))[:, 0] - 1.0

    def _apply(self, b: np.ndarray) -> np.ndarray:
        if self.kind == "exp":
            return spla.expm_multiply(self._gm, b)
        return self._lu.solve(b)

    def diag(self, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        missing = np.array(sorted({int(i) for i in nodes} - self._diag.keys()), dtype=np.int64)
        for lo in range(0, missing.size, BLOCK):
            block = missing[lo : lo + BLOCK]
            e = np.zeros((self.n, block.size))
            e[block, np.arange(block.size)] = 1.0
            values = self._apply(e)[block, np.arange(block.size)] - 1.0
            self._diag.update(zip(block.tolist(), values.tolist()))
        return np.array([self._diag[int(i)] for i in nodes])

    def full_diag(self) -> np.ndarray:
        return self.diag(np.arange(self.n))


def check_close(what: str, est, ref, tol: float = REL_TOL, floor: float = 1.0) -> list[str]:
    """Max-norm relative error at most ``tol``.

    The default floor of 1 is the scale of g(M) = f(M) + I: both the
    program and the reference form f(M) by subtracting the identity from
    g(M), whose diagonal is at least 1, so entries far below 1 carry an
    absolute rounding error near 1e-16 on either side.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        return [f"{what}: shape {est.shape} != {ref.shape}"]
    if not np.all(np.isfinite(est)):
        return [f"{what}: non-finite values"]
    if not ref.size:
        return []
    err = float(np.max(np.abs(est - ref))) / max(floor, float(np.max(np.abs(ref))))
    return [] if err <= tol else [f"{what}: max-norm relative error {err:.3e} > {tol:.0e}"]


def check_masked_result(
    result, ref: MatfunReference, J: np.ndarray, directed: bool, extra_nodes: np.ndarray, k: int
) -> list[str]:
    """Row sums everywhere; diagonal on J, the top-k nodes and extra_nodes;
    for a column mask the diagonal off J must be exactly zero."""
    problems = check_close("rowsum", result.rowsum, ref.rowsum)
    diag = np.asarray(result.diag)
    if diag.shape != (ref.n,):
        return problems + [f"diag: shape {diag.shape} != ({ref.n},)"]
    top = np.argsort(-diag, kind="stable")[:k]
    nodes = np.unique(np.concatenate([np.asarray(J), top, np.asarray(extra_nodes)]))
    problems += check_close("diag", diag[nodes], ref.diag(nodes))
    if directed:
        off = np.ones(ref.n, dtype=bool)
        off[np.asarray(J)] = False
        if np.any(diag[off] != 0.0):
            problems.append("diag: nonzero entries outside the sampled columns")
    return problems


# -- samples -------------------------------------------------------------------


def check_sample(sample, b: sp.csr_matrix, ell: int, kind: str, strategy: str) -> list[str]:
    """A column sample of B (B = A for columns, A^T for rows).

    Guided: every draw after the first has an edge into the earlier picks
    (b[j, p] = 1 for an earlier pick p), except the draws counted in
    ``fallback_draws``; the two counts must match exactly.
    """
    problems = []
    idx = np.asarray(sample.indices, dtype=np.int64)
    n = b.shape[0]
    if sample.kind != kind or sample.strategy != strategy:
        got = f"{sample.kind}/{sample.strategy}"
        problems.append(f"sample: kind/strategy {got} != {kind}/{strategy}")
    if idx.size != ell:
        problems.append(f"sample: {idx.size} indices, expected {ell}")
    if np.unique(idx).size != idx.size:
        problems.append("sample: repeated indices")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        return problems + ["sample: index out of range"]
    col_nnz = np.diff(b.tocsc().indptr)
    if np.any(col_nnz[idx] == 0):
        problems.append("sample: zero column selected")
    if strategy == "guided" and idx.size and not problems:
        pos = np.full(n, idx.size, dtype=np.int64)
        pos[idx] = np.arange(idx.size)
        rows = b[idx].tocsr()
        first_pick = np.full(idx.size, idx.size, dtype=np.int64)
        nonempty = np.diff(rows.indptr) > 0
        if rows.nnz:
            mins = np.minimum.reduceat(pos[rows.indices], rows.indptr[:-1][nonempty])
            first_pick[nonempty] = mins
        unguided = int(np.count_nonzero(first_pick[1:] >= np.arange(1, idx.size)))
        if unguided != int(sample.fallback_draws):
            problems.append(
                f"sample: {unguided} draws without an edge into earlier picks, "
                f"fallback_draws = {sample.fallback_draws}"
            )
    return problems


# -- rankings ------------------------------------------------------------------


def check_ranking(ranking, scores: np.ndarray, k: int) -> list[str]:
    """Descending order, ties by ascending id, over a permutation of all nodes."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.asarray(ranking.ordered_nodes)
    n = scores.size
    if order.shape != (n,) or np.any(np.sort(order) != np.arange(n)):
        return ["ranking: order is not a permutation of the nodes"]
    s = scores[order]
    if np.any(np.asarray(ranking.scores) != s):
        return ["ranking: scores do not follow the order"]
    down = np.diff(s)
    if np.any(down > 0):
        return ["ranking: scores increase along the order"]
    ties = down == 0
    if np.any(np.diff(order)[ties] < 0):
        return ["ranking: tie not broken by ascending id"]
    if ranking.k != k:
        return [f"ranking: k = {ranking.k}, expected {k}"]
    return []


def check_top_list(top, values: np.ndarray, k: int, what: str, tol: float = REL_TOL) -> list[str]:
    """``top`` lists the k largest of ``values`` in descending order, up to
    differences within ``tol`` of the max-norm."""
    top = np.asarray(top, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if top.size != k or np.unique(top).size != k:
        return [f"{what}: top list has {top.size} entries, expected {k} distinct"]
    tol = tol * float(np.max(np.abs(values)))
    v = values[top]
    rest = np.ones(values.size, dtype=bool)
    rest[top] = False
    if np.any(np.diff(v) > tol):
        return [f"{what}: top list out of order"]
    if rest.any() and float(np.max(values[rest])) > float(v.min()) + tol:
        return [f"{what}: a node outside the top list scores higher"]
    return []


# -- Perron vectors ------------------------------------------------------------


def product_transpose(a: sp.csr_matrix, J, I, epsilon: float):
    """v -> (M + eps 1 1^T)^T v for M = A_cols(J) @ A_rows(I)."""
    n = a.shape[0]
    cols = column_mask(a, J)
    keep = np.zeros(n)
    keep[np.asarray(I)] = 1.0
    rows = (sp.diags(keep) @ a).tocsr()
    ct, rt = cols.T.tocsr(), rows.T.tocsr()
    return lambda v: rt @ (ct @ v) + epsilon * float(np.sum(v))


def symmetric_product(a: sp.csr_matrix, J, epsilon: float):
    """v -> (A_J A_J^T + eps 1 1^T) v."""
    cols = column_mask(a, J)
    ct = cols.T.tocsr()
    return lambda v: cols @ (ct @ v) + epsilon * float(np.sum(v))


def check_perron(result, apply, n: int) -> list[str]:
    """Converged, nonnegative, unit 2-norm, residual at most 1e-8 * lambda."""
    v = np.asarray(result.vector, dtype=np.float64)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        return ["perron: vector has the wrong shape or non-finite entries"]
    problems = []
    if not result.converged:
        problems.append("perron: not converged")
    if np.any(v < 0):
        problems.append("perron: negative entries")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        problems.append("perron: vector is not unit-norm")
    w = apply(v)
    lam = float(v @ w)
    res = float(np.linalg.norm(w - lam * v))
    if not lam > 0 or res > PERRON_RESIDUAL_TOL * lam:
        problems.append(f"perron: residual {res:.3e} for lambda {lam:.6g}")
    elif abs(result.eigenvalue_estimate - lam) > PERRON_RESIDUAL_TOL * lam:
        problems.append(f"perron: eigenvalue estimate {result.eigenvalue_estimate!r} != {lam!r}")
    return problems


def perron_vector(apply, n: int) -> np.ndarray:
    """Dominant eigenvector of a nonnegative operator by ARPACK, unit and >= 0."""
    op = spla.LinearOperator((n, n), matvec=apply, dtype=np.float64)
    _, vec = spla.eigs(op, k=1, which="LR", v0=np.ones(n), tol=0)
    v = np.real(vec[:, 0])
    v = v / np.linalg.norm(v)
    return v if v.sum() >= 0 else -v


# -- ingest and generators -----------------------------------------------------


def check_parsed(g, n: int, edges: np.ndarray, directed: bool) -> list[str]:
    """The parsed entry set equals the written edge set."""
    if g.n != n or g.directed != directed:
        return [f"parse: n={g.n} directed={g.directed}, expected n={n} directed={directed}"]
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    want = np.unique(src * np.int64(n) + dst)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_ptr))
    got = rows * np.int64(n) + np.asarray(g.row_cols, dtype=np.int64)
    if got.size != want.size or np.any(got != want):
        return [f"parse: {got.size} parsed entries differ from the {want.size} written"]
    return []


def _loops_and_symmetry(g, directed: bool) -> list[str]:
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_ptr))
    cols = np.asarray(g.row_cols, dtype=np.int64)
    problems = []
    if np.any(rows == cols):
        problems.append("generate: self-loops present")
    if g.directed != directed:
        problems.append(f"generate: directed={g.directed}, expected {directed}")
    if not directed:
        fwd = np.sort(rows * g.n + cols)
        bwd = np.sort(cols * g.n + rows)
        if np.any(fwd != bwd):
            problems.append("generate: undirected graph is not symmetric")
    return problems


def check_generated_pa(g, n: int, m: int) -> list[str]:
    """n nodes; m distinct edges per node after the first m: 2*m*(n-m) entries."""
    problems = [] if g.n == n else [f"generate: {g.n} nodes, expected {n}"]
    if g.edge_count != 2 * m * (n - m):
        problems.append(f"generate: {g.edge_count} entries, expected {2 * m * (n - m)}")
    return problems + _loops_and_symmetry(g, directed=False)


def check_generated_er(g, n: int, p: float) -> list[str]:
    """n nodes; the directed edge count within 6 sigma of Binomial(n(n-1), p)."""
    problems = [] if g.n == n else [f"generate: {g.n} nodes, expected {n}"]
    trials = n * (n - 1)
    mean = trials * p
    bound = 6.0 * np.sqrt(trials * p * (1 - p))
    if abs(g.edge_count - mean) > bound:
        problems.append(f"generate: {g.edge_count} edges, expected {mean:.0f} +- {bound:.0f}")
    return problems + _loops_and_symmetry(g, directed=True)


# -- CLI reports ---------------------------------------------------------------


def parse_report_csv(text: str) -> dict:
    """The figure-style CSV: top-k columns and the overlap/exact rows."""
    lines = [line.split(",") for line in text.strip().splitlines()]
    header = lines[0]
    body = lines[1:-2]
    return {
        "labels": header[1:],
        "ranks": [int(row[0]) for row in body],
        "columns": {label: [int(row[c + 1]) for row in body] for c, label in enumerate(header[1:])},
        "overlap": [int(x) for x in lines[-2][2:]] if lines[-2][0] == "overlap@k" else None,
        "exact": [int(x) for x in lines[-1][2:]] if lines[-1][0] == "exact@k" else None,
    }


def check_cli_report(
    report: dict,
    csv_text: str,
    k: int,
    ref_values: np.ndarray,
    run_values: dict,
    first_seed: int,
    vector_tol: float,
    floor: float,
) -> list[str]:
    """A CLI JSON report and its CSV against independent score vectors.

    ``ref_values`` are the exact scores of the full graph; ``run_values``
    maps (ell, seed) to the exact scores of that sampled estimate.
    ``vector_tol`` and ``floor`` are passed to ``check_close``.
    """
    if "failed" in report:
        return [f"cli: report marks a failure: {report['failed']}"]
    problems = []
    body = report["report"]
    ref = body["reference"]
    problems += check_close(
        "cli reference scores", ref["scores"], np.sort(ref_values)[::-1], vector_tol, floor
    )
    problems += check_top_list(ref["top"], ref_values, k, "cli reference", vector_tol)
    ref_top = ref["top"]

    def stats(top):
        return len(set(top) & set(ref_top)), int(sum(a == b for a, b in zip(top, ref_top)))

    ells = [int(e) for e in report["config_echo"]["ell_list"]]
    if [c["label"] for c in body["candidates"]] != [f"l={e}" for e in ells]:
        problems.append("cli: candidate labels do not match the ell list")
    for cand, ell in zip(body["candidates"], ells):
        values = run_values[(ell, first_seed)]
        problems += check_close(
            f"cli candidate {cand['label']} scores",
            cand["scores"],
            np.sort(values)[::-1],
            vector_tol,
            floor,
        )
        problems += check_top_list(
            cand["top"], values, k, f"cli candidate {cand['label']}", vector_tol
        )
        if (cand["overlap_at_k"], cand["exact_at_k"]) != stats(cand["top"]):
            problems.append(f"cli: candidate {cand['label']} overlap/exact do not recompute")
    expected = {key for key in run_values}
    seen = set()
    for entry in report["results"]:
        key = (int(entry["ell"]), int(entry["seed"]))
        seen.add(key)
        if key not in run_values:
            problems.append(f"cli: unexpected result {key}")
            continue
        problems += check_top_list(
            entry["top"], run_values[key], k, f"cli result {key}", vector_tol
        )
        if (entry["overlap_at_k"], entry["exact_at_k"]) != stats(entry["top"]):
            problems.append(f"cli: result {key} overlap/exact do not recompute")
    if seen != expected:
        problems.append(f"cli: results cover {sorted(seen)}, expected {sorted(expected)}")

    table = parse_report_csv(csv_text)
    if table["labels"] != ["reference"] + [c["label"] for c in body["candidates"]]:
        problems.append("cli csv: header does not match the JSON candidates")
    elif table["ranks"] != list(range(1, k + 1)):
        problems.append("cli csv: rank column is not 1..k")
    else:
        if table["columns"]["reference"] != ref_top:
            problems.append("cli csv: reference top-k differs from the JSON")
        for cand in body["candidates"]:
            if table["columns"][cand["label"]] != cand["top"]:
                problems.append(f"cli csv: {cand['label']} top-k differs from the JSON")
        if table["overlap"] != [c["overlap_at_k"] for c in body["candidates"]]:
            problems.append("cli csv: overlap@k row differs from the JSON")
        if table["exact"] != [c["exact_at_k"] for c in body["candidates"]]:
            problems.append("cli csv: exact@k row differs from the JSON")
    return problems
