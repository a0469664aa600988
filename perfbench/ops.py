"""Benchmark operations on ipl's public API, with their output checks.

An operation is one public call (the root part), timed as a whole. For a
composite verifier the root part also lists the public calls the verifier
is built from, on the same inputs; the traced run issues those again as
child spans, so the verifier's self time is what they do not cover. Only
public names meant to stay are used: no private helpers, no thread or force
flags, none of the thin wrappers slated for removal, and every call stays
within the default caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ipl import (
    Graph,
    IplSetup,
    SpdMatrix,
    compatibility,
    conductance,
    cut_stats,
    graph_incidence,
    inner_product_laplacian,
    semi_hodge,
    verify_cheeger,
    verify_eml,
    verify_eml_batch,
    verify_radius_bound,
    weak_conformality,
    weak_conformality_sampled,
    weak_conformality_value,
)

from inputs import conformality_attrs, cuts, pairs

# Sampled lower-bound trials per conformality check; cheap next to the exact scan.
SAMPLED_TRIALS = 256
TOL = 1e-9


@dataclass
class Part:
    """One public call: span name "<module>.<function>", the call, span attributes."""

    name: str
    fn: Callable[[], object]
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)


@dataclass
class Op:
    """A benchmark operation: the timed root call, the replays the traced run
    issues given its result, and the check of its output (a list of problems)."""

    label: str
    root: Part
    check: Callable[[object], list]
    replay: Callable[[object], list] = lambda result: []
    counted: list = field(default_factory=list)  # library parts behind a root that is not one

    def work(self) -> dict:
        """Partitions, cuts and pairs, counted from input shapes over the call tree."""
        out = {"partitions": 0, "cuts": 0, "pairs": 0, "structured_partitions": 0}

        def walk(part: Part):
            for key in ("partitions", "cuts", "pairs"):
                out[key] += part.attrs.get(key, 0)
            if part.attrs.get("structured"):
                out["structured_partitions"] += part.attrs["partitions"]
            for child in part.children:
                walk(child)

        for part in [self.root, *self.counted]:
            walk(part)
        return out


def library_op(label: str, root: Part, check: Callable[[object], list]) -> Op:
    return Op(label, root, check, replay=lambda result: root.children)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def witness_value(a: np.ndarray, s: np.ndarray, t: np.ndarray) -> float:
    """Weak-conformality value of one support partition, recomputed with numpy:
    sqrt of the top eigenvalue of L^-1 M_ST M_TT^-1 M_TS L^-T, M_SS = L L^T."""
    chol = np.linalg.cholesky(a[np.ix_(s, s)])
    c = np.linalg.solve(chol, a[np.ix_(s, t)])
    inner = c @ np.linalg.solve(a[np.ix_(t, t)], c.T)
    top = float(np.linalg.eigvalsh(0.5 * (inner + inner.T))[-1])
    return float(np.sqrt(max(top, 0.0)))


def sampled_bound_problems(name: str, m: SpdMatrix, rho: float, seed: int) -> list:
    if m.dim < 2:
        return []
    lower = weak_conformality_sampled(m, SAMPLED_TRIALS, seed)
    return [] if rho >= lower - TOL else [f"{name} = {rho!r} is below the sampled lower bound {lower!r}"]


def check_weak(m: SpdMatrix, res, seed: int, expected: float | None = None) -> list:
    k = m.dim
    s = np.array(res.witness_partition, dtype=int)
    t = np.setdiff1d(np.arange(k), s)
    if len(s) == 0 or len(t) == 0 or s[0] != 0:
        return [f"witness {res.witness_partition} is not a proper subset containing index 0"]
    problems = []
    value = witness_value(m.entries, s, t)
    if not close(value, res.rho_weak):
        problems.append(f"rho_weak {res.rho_weak!r} != {value!r} recomputed on the witness partition")
    x, y = res.witness_x, res.witness_y
    if np.any(x[t] != 0.0) or np.any(y[s] != 0.0):
        problems.append("witness vectors are not supported on the witness partition")
    if not close(float(x @ m.entries @ y), res.rho_weak):
        problems.append("witness correlation differs from rho_weak")
    if expected is not None and not close(res.rho_weak, expected):
        problems.append(f"rho_weak {res.rho_weak!r} != {expected!r} expected from the Partition gadget")
    return problems + sampled_bound_problems("rho_weak", m, res.rho_weak, seed)


def weak_op(label: str, m: SpdMatrix, seed: int, expected: float | None = None) -> Op:
    root = Part("conformality.weak_conformality", lambda: weak_conformality(m), conformality_attrs(m))
    return library_op(label, root, lambda res: check_weak(m, res, seed, expected))


def weak_value_part(m: SpdMatrix) -> Part:
    return Part("conformality.weak_conformality_value", lambda: weak_conformality_value(m), conformality_attrs(m))


def spectrum_part(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Part:
    return Part("laplacian.inner_product_laplacian", lambda: inner_product_laplacian(IplSetup.from_graph(g, m_v, m_e)))


def conductance_part(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, **kwargs) -> Part:
    return Part("isoperimetry.conductance", lambda: conductance(g, m_v, m_e, **kwargs), {"cuts": cuts(g.n)})


def conductance_problems(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, phi: float, witness) -> list:
    """The witness, re-evaluated with cut_stats against its complement, must give phi."""
    witness = [int(v) for v in witness]
    if not witness or witness[0] != 0 or len(witness) >= g.n:
        return [f"conductance witness {witness} is not a proper vertex set containing vertex 0"]
    rest = [v for v in range(g.n) if v not in witness]
    st = cut_stats(g, m_v, m_e, witness, rest)
    value = st.e_xy / min(st.vol_x, st.vol_y)
    return [] if close(value, phi) else [f"phi {phi!r} != {value!r} re-evaluated on the witness"]


def conductance_op(label: str, g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Op:
    def check(res):
        phi, witness, _ = res
        return conductance_problems(g, m_v, m_e, phi, witness)

    return library_op(label, conductance_part(g, m_v, m_e), check)


def cheeger_part(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Part:
    return Part(
        "isoperimetry.verify_cheeger",
        lambda: verify_cheeger(g, m_v, m_e),
        children=[
            conductance_part(g, m_v, m_e),
            spectrum_part(g, m_v, m_e),
            weak_value_part(m_v),
            weak_value_part(m_e),
            Part("laplacian.compatibility", lambda: compatibility(g, m_v, m_e)),
        ],
    )


def verdict_problems(report) -> list:
    return [] if report.passed else [f"{report.check} verdict is not passed"]


def rho_problems(report, m_v: SpdMatrix, m_e: SpdMatrix, seed: int) -> list:
    return sampled_bound_problems("rho_v", m_v, report.values["rho_v"], seed) + sampled_bound_problems(
        "rho_e", m_e, report.values["rho_e"], seed
    )


def cheeger_op(label: str, g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, seed: int) -> Op:
    def check(report):
        v = report.values
        return (
            verdict_problems(report)
            + conductance_problems(g, m_v, m_e, v["phi"], v["witness_S"])
            + rho_problems(report, m_v, m_e, seed)
        )

    return library_op(label, cheeger_part(g, m_v, m_e), check)


def radius_part(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Part:
    return Part(
        "laplacian.verify_radius_bound",
        lambda: verify_radius_bound(g, m_v, m_e),
        children=[
            Part("laplacian.semi_hodge", lambda: semi_hodge(graph_incidence(g).astype(float), m_v, m_e)),
            weak_value_part(m_v),
            weak_value_part(m_e),
            Part("laplacian.compatibility", lambda: compatibility(g, m_v, m_e)),
        ],
    )


def radius_op(label: str, g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, seed: int) -> Op:
    def check(report):
        return verdict_problems(report) + rho_problems(report, m_v, m_e, seed)

    return library_op(label, radius_part(g, m_v, m_e), check)


def eml_batch_part(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Part:
    return Part(
        "isoperimetry.verify_eml_batch",
        lambda: verify_eml_batch(g, m_v, m_e),
        {"pairs": pairs(g.n)},
        children=[spectrum_part(g, m_v, m_e), weak_value_part(m_e)],
    )


def eml_batch_problems(g: Graph, m_v: SpdMatrix, m_e: SpdMatrix, report) -> list:
    """Verdict, pair count, and the worst pair re-checked on its own with verify_eml."""
    v = report.values
    problems = verdict_problems(report)
    if v["pairs_checked"] != pairs(g.n):
        problems.append(f"pairs_checked {v['pairs_checked']} != 4^{g.n}")
    single = verify_eml(g, m_v, m_e, v["worst_x"], v["worst_y"], rho_e=v["rho_e"])
    scale = abs(v["worst_lhs"]) + abs(v["worst_rhs"])
    if abs(single.values["margin"] - v["min_margin"]) > TOL * max(1.0, scale):
        problems.append(f"worst-pair margin {v['min_margin']!r} != {single.values['margin']!r} from verify_eml")
    return problems


def eml_batch_op(label: str, g: Graph, m_v: SpdMatrix, m_e: SpdMatrix) -> Op:
    return library_op(
        label, eml_batch_part(g, m_v, m_e), lambda report: eml_batch_problems(g, m_v, m_e, report)
    )
