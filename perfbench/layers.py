"""Per-layer metrics from the spans of one traced pass.

Per-call times are self times in microseconds of thread CPU time (a
span's CPU time minus that of its children on the same thread), so time
spent waiting for the interpreter lock on the CLI's pool threads is not
counted.  ``cli.self_s`` is the root span's wall time minus the union of
its children's intervals.  Counts are exact for a given seed, because a
traced run always covers one whole pass.
"""

from __future__ import annotations

from rotsurf4.expr import Binary, Unary

from spans import ROOT, SURFACE_MAP, cpu_self_times, self_times

# metric name -> span name, for the per-call self times
PER_CALL_US = {
    "expr.parse.us": "expr.parse",
    "expr.differentiate.us": "expr.differentiate",
    "expr.value.us": "expr.value",
    "expr.deriv1.us": "expr.deriv1",
    "expr.deriv2.us": "expr.deriv2",
    "geometry.fd_jet2.us": "geometry.fd_jet2",
    "geometry.gram_schmidt_normals.us": "geometry.gram_schmidt_normals",
    "geometry.analytic_jet2.us": "geometry.analytic_jet2",
    "geometry.surface_map.us": SURFACE_MAP,
    "forms.first_form.us": "forms.first_form",
    "forms.second_tensor.us": "forms.second_tensor",
    "forms.invariants.us": "forms.invariants",
    "forms.is_circle.us": "forms.is_circle",
    "octet.octet_generic.us": "octet.octet_generic",
    "rotational.closed_forms_at.us": "rotational.closed_forms_at",
    "rotational.closed_invariants_at.us": "rotational.closed_invariants_at",
    "rotational.closed_octet_at.us": "rotational.closed_octet_at",
    "msc.msc_residual.us": "msc.msc_residual",
    "msc.power_law_invariants.us": "msc.power_law_invariants",
    "cli.build_parser.us": "cli.build_parser",
}


def tree_nodes(tree) -> int:
    if isinstance(tree, Binary):
        return 1 + tree_nodes(tree.left) + tree_nodes(tree.right)
    if isinstance(tree, Unary):
        return 1 + tree_nodes(tree.child)
    return 1


def layer_metrics(spans: list[tuple], d2_trees: list, commands) -> tuple[dict, list[str]]:
    """(metric name -> (value, unit), names that had no calls)."""
    own = cpu_self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    ok_octets = 0
    for sid, name, *_, ok in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own[sid]
        ok_octets += name == "octet.octet_generic" and ok

    metrics, missing = {}, []
    for metric, name in PER_CALL_US.items():
        n = calls.get(name, 0)
        if n == 0:
            missing.append(metric)
        metrics[metric] = (busy.get(name, 0.0) / n * 1e6 if n else 0.0, "us")

    sizes: dict[int, int] = {}
    for tree in d2_trees:
        if id(tree) not in sizes:
            sizes[id(tree)] = tree_nodes(tree)
    if not d2_trees:
        missing.append("expr.d2_nodes")
    metrics["expr.d2_nodes"] = (
        sum(sizes[id(t)] for t in d2_trees) / len(d2_trees) if d2_trees else 0.0, "count")

    points = sum(c.points for c in commands)
    evals = sum(calls.get(n, 0) for n in ("expr.value", "expr.deriv1", "expr.deriv2"))
    metrics["expr.evals_per_point"] = (evals / points, "count")
    metrics["geometry.map_calls_per_point"] = (calls.get(SURFACE_MAP, 0) / points, "count")
    verify_points = sum(c.points for c in commands if c.kind == "verify")
    if not verify_points:
        missing.append("octet.na_points")
    metrics["octet.na_points"] = (float(verify_points - ok_octets), "count")
    wall = self_times(spans)
    roots = [sid for sid, name, *_ in spans if name == ROOT]
    metrics["cli.self_s"] = (sum(wall[sid] for sid in roots) / len(roots), "s")
    return metrics, missing
