"""Library driver for the `dualw_com4_q` workload: the End-side mirror of
the W/cobar comparison (acceptance criterion 09, taken to arity N).

It builds q = extend_cooperad(bar(com, N)) over Q, then the co-W
resolution (eta, zeta) and theta_star, and prints one JSON report with,
per tree, the dimensions involved and whether eta and theta_star are
quasi-isomorphisms and zeta after eta is the identity. Exit code 0 when
every check holds, 1 otherwise.
"""
from __future__ import annotations

import json

# Called through their modules, so that the tracer's wrappers are seen.
from opdual import barcobar, chain, operads, trees
from opdual.fields import QQ


def main(N: int, ready=lambda p: p) -> int:
    """`ready` is called with the operad as soon as it is built."""
    p = ready(operads.builtin_operad("com", QQ, N))
    q = operads.extend_cooperad(barcobar.bar(p, N))
    _, etas, zetas = barcobar.co_w_resolution(q, N)
    ths = barcobar.theta_star(q, N)
    rows = []
    for n in range(1, N + 1):
        for t in trees.enumerate_trees(n):
            rows.append({
                "tree": t.encode(),
                "dims_q": {str(k): v for k, v in q.term(t).dims().items()},
                "dims_co_w": {str(k): v
                              for k, v in etas[t].target.dims().items()},
                "eta_quasi_iso": chain.is_quasi_iso(etas[t]),
                "zeta_after_eta_identity":
                    etas[t].then(zetas[t])
                    == chain.ChainMap.identity(q.term(t)),
                "theta_star_quasi_iso": chain.is_quasi_iso(ths[t]),
            })
    ok = all(r["eta_quasi_iso"] and r["zeta_after_eta_identity"]
             and r["theta_star_quasi_iso"] for r in rows)
    print(json.dumps({"command": "dualw", "field": "q", "max_arity": N,
                      "trees": rows, "pass": ok}, sort_keys=True))
    return 0 if ok else 1
