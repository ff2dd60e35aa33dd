"""Command-line interface.

Exit codes: 0 when every check passed (findings that only contradict unproven
statements are recorded, not failed), 1 when an assertion failed, 2 on input
errors (bad documents, unmet preconditions, exceeded caps).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .chains import lazy_max_degree_kernel, natural_walk
from .corpus import corpus_graphs
from .documents import parse_chain, parse_graph, parse_map
from .errors import IsospecError, InvalidDocument, CapExceeded
from .graphs import circulant_graph, three_clique_graph
from .homomorphism import ONTO_MODES, comparison_check, no_hom_search, validate_hom, comparison_constants
from .isoperimetry import (
    DEFAULT_CAP,
    complete_graph_reference,
    isoperimetric_constant,
    isoperimetric_table,
    supergeometric_classify,
)
from .nodal import (
    cheeger_lower,
    cheeger_upper,
    eigenfunction_compatible_set,
    gen_cheeger_probe,
    sign_decomposition,
)
from .reports import SCHEMA_VERSION, canonical_json, digest_file, jsonable
from .spectral import spectrum
from .tolerance import at_most


def _is_complete_graph(graph):
    n = graph.vertex_count
    return len(graph.arcs) == n * (n - 1) and all(
        (u, v) in graph.arcs for u in range(n) for v in range(n) if u != v
    )


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


def _load_chain(path, args):
    backend = "float" if args.float else ("exact" if args.exact else None)
    return parse_chain(_read(path), backend=backend)


# ---------------------------------------------------------------------------
# Subcommands: each returns (payload, checks, findings)
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    chain = _load_chain(args.graph, args)
    rep = spectrum(chain)
    payload = {
        "pi": chain.pi,
        "lambdas": rep.lambdas,
        "alphas": rep.alphas,
        "mean_lambdas": rep.mean_lambdas,
        "eigenbasis": rep.eigenbasis,
        "degenerate": rep.degenerate,
        "offdiag_residual": rep.offdiag_residual,
    }
    return payload, [], []


def cmd_iso(args):
    chain = _load_chain(args.graph, args)
    rep = isoperimetric_constant(chain, args.n, args.mode, cap=args.cap)
    payload = {"n": args.n, "mode": args.mode, "families_examined": rep.families_examined}
    if rep.iota is not None:
        payload["iota"] = rep.iota
        payload["witness"] = [sorted(c) for c in rep.witness.classes]
    if rep.iota_tilde is not None:
        payload["iota_tilde"] = rep.iota_tilde
        payload["witness_tilde"] = [sorted(c) for c in rep.witness_tilde.classes]
    findings = []
    if _is_complete_graph(chain.graph) and rep.iota is not None:
        ref = complete_graph_reference(chain.graph.vertex_count, args.n)
        ref["enumerated"] = rep.iota
        findings.append({"kind": "complete_graph_formula", **ref})
    return payload, [], findings


def _supergeometric_rows(rep):
    return [
        {"n": n, "iota": a, "iota_tilde": b, "geometric": geo}
        for n, a, b, geo in rep.rows
    ]


def cmd_supergeometric(args):
    chain = _load_chain(args.graph, args)
    rep = supergeometric_classify(chain, args.max_n, cap=args.cap)
    payload = {
        "rows": _supergeometric_rows(rep),
        "supergeometric": rep.supergeometric,
        "max_n": rep.max_n,
    }
    return payload, [], []


def cmd_cheeger(args):
    chain = _load_chain(args.graph, args)
    spec = spectrum(chain)
    iso = isoperimetric_constant(chain, args.n, "both", cap=args.cap)
    checks = [
        {
            "name": f"mean_lambda_{args.n} <= iota_{args.n}",
            "passed": cheeger_lower(spec, iso),
            "mean_lambda": spec.mean_lambda(args.n),
            "iota": iso.iota,
        }
    ]
    if args.n == 2:
        lam2 = spec.lambdas[1]
        iota2 = float(iso.iota)
        checks.append(
            {
                "name": "classical sandwich lambda_2/2 <= iota_2 <= sqrt(2 lambda_2)",
                "passed": at_most(0.5 * lam2, iota2) and at_most(iota2 * iota2, 2 * lam2),
                "lambda_2": lam2,
                "iota_2": iso.iota,
            }
        )
        checks.append(
            {
                "name": "iota_2 equals iota_tilde_2",
                "passed": iso.iota == iso.iota_tilde,
            }
        )
    payload = {"n": args.n, "iota": iso.iota, "iota_tilde": iso.iota_tilde,
               "mean_lambda": spec.mean_lambda(args.n)}
    return payload, checks, []


def cmd_nodal(args):
    chain = _load_chain(args.graph, args)
    spec = spectrum(chain)
    k = args.eigen
    if not 1 <= k <= chain.graph.vertex_count:
        raise InvalidDocument(f"--eigen must be in 1..{chain.graph.vertex_count}")
    f = spec.eigenbasis[k - 1]
    dec = sign_decomposition(chain.graph, f)
    iso = isoperimetric_constant(chain, dec.kappa, "disjoint", cap=args.cap)
    cs = eigenfunction_compatible_set(chain, spec, k)
    upper = cheeger_upper(chain, cs, iso)
    lam = spec.lambdas[k - 1]
    checks = [
        {
            "name": f"lambda_kappa <= lambda_{k}",
            "passed": at_most(spec.lambdas[dec.kappa - 1], lam),
            "kappa": dec.kappa,
        },
        {
            "name": f"lambda_{k} >= iota_kappa^2 / 2",
            "passed": upper["holds"],
            "iota_kappa": iso.iota,
        },
    ]
    payload = {
        "eigen_index": k,
        "lambda": lam,
        "eigenfunction": f,
        "degenerate": spec.degenerate[k - 1],
        "positives": sorted(dec.positives),
        "negatives": sorted(dec.negatives),
        "zeros": sorted(dec.zeros),
        "positive_components": [sorted(c) for c in dec.positive_components],
        "negative_components": [sorted(c) for c in dec.negative_components],
        "kappa_plus": dec.kappa_plus,
        "kappa_minus": dec.kappa_minus,
        "kappa": dec.kappa,
    }
    return payload, checks, []


def cmd_compare(args):
    chain_from = _load_chain(args.graph_from, args)
    chain_to = _load_chain(args.graph_to, args)
    sigma = parse_map(_read(args.map), chain_from.graph, chain_to.graph)
    witness = validate_hom(chain_from.graph, chain_to.graph, sigma)
    payload = {"classification": witness.classification, "map": list(witness.mapping)}
    checks = []
    if witness.is_hom:
        if args.check == "none":
            payload["constants"] = comparison_constants(chain_from, chain_to, witness)
        else:
            rep = comparison_check(chain_from, chain_to, witness, args.check, cap=args.cap)
            payload["constants"] = rep["constants"]
            payload["comparison"] = {
                "part_a": rep["part_a"],
                "part_b": rep["part_b"],
            }
            checks.append({"name": "comparison bounds", "passed": rep["holds"]})
            checks.extend(
                {"name": f"comparison {reason}", "passed": True, "skipped": True}
                for reason in rep["unmet"].values()
            )
    return payload, checks, []


def cmd_nohom(args):
    g_from, _ = parse_graph(_read(args.graph_from))
    g_to, _ = parse_graph(_read(args.graph_to))
    witness = no_hom_search(g_from, g_to, args.mode, args.cap_maps)
    if witness is None:
        payload = {"verdict": "none exists", "mode": args.mode}
    else:
        payload = {"verdict": "witness found", "mode": args.mode, "map": list(witness.mapping)}
    return payload, [], []


def _three_clique_point(item):
    n, cap = item
    chain = natural_walk(three_clique_graph(n))
    iso = isoperimetric_constant(chain, 3, "both", cap=cap)
    expected_hub = Fraction(1, n * n - n + 2)
    return {
        "block_size": n,
        "vertices": chain.graph.vertex_count,
        "pi_hub": chain.pi[0],
        "pi_hub_expected": expected_hub,
        "pi_hub_matches": chain.pi[0] == expected_hub,
        "iota_3": iso.iota,
        "iota_tilde_3": iso.iota_tilde,
        "strict_gap": iso.iota < iso.iota_tilde,
        "iota_3_times_n_sq": iso.iota * n * n,
        "witness": [sorted(c) for c in iso.witness.classes],
    }


def _gencheeger_point(item):
    name, max_n, cap = item
    chain = natural_walk(dict(corpus_graphs())[name])
    vcount = chain.graph.vertex_count
    spec = spectrum(chain)
    out = []
    for iso in isoperimetric_table(chain, min(max_n or vcount, vcount), "disjoint", cap=cap)[1:]:
        finding = gen_cheeger_probe(chain, iso.n, iso, spec)
        finding["chain"] = name
        out.append(finding)
    return out


def _parallel_map(fn, items, jobs):
    if jobs <= 1:
        return [fn(x) for x in items]
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items)


def cmd_probe_three_clique(args):
    lo, hi = args.sweep
    if 3 * hi + 1 > args.cap:
        raise CapExceeded(
            f"three-clique sweep needs {3 * hi + 1} vertices; cap is {args.cap}"
        )
    points = _parallel_map(
        _three_clique_point, [(n, args.cap) for n in range(lo, hi + 1)], args.jobs
    )
    findings = [{"kind": "three_clique", **p} for p in points]
    payload = {"experiment": "three-clique", "points": points}
    checks = [
        {
            "name": "hub stationary mass matches 1/(n^2-n+2)",
            "passed": all(p["pi_hub_matches"] for p in points),
        }
    ]
    return payload, checks, findings


def cmd_probe_circulant(args):
    order = args.order
    connections = [int(x) for x in args.connections.split(",") if x.strip()]
    if order > args.cap:
        raise CapExceeded(f"order {order} exceeds cap {args.cap}")
    graph = circulant_graph(order, connections)
    chain = lazy_max_degree_kernel(graph)
    rep = supergeometric_classify(chain, cap=args.cap)
    payload = {
        "experiment": "circulant",
        "order": order,
        "connections": connections,
        "uniform_pi_stationary": chain.uniform_pi_stationary,
        "rows": _supergeometric_rows(rep),
        "supergeometric": rep.supergeometric,
    }
    findings = [
        {
            "kind": "circulant_supergeometric",
            "order": order,
            "connections": connections,
            "verdict": rep.supergeometric,
        }
    ]
    return payload, [], findings


def cmd_probe_gencheeger(args):
    names = [
        name for name, graph in corpus_graphs() if graph.vertex_count <= args.max_vertices
    ]
    batches = _parallel_map(
        _gencheeger_point, [(name, args.max_n, args.cap) for name in names], args.jobs
    )
    findings = [f for batch in batches for f in batch]
    payload = {"experiment": "gencheeger", "findings_count": len(findings)}
    return payload, [], findings


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="isospec",
        description="Isoperimetric and Laplacian spectra of Markov chains on directed graphs",
    )
    parser.add_argument("--json", action="store_true", help="emit the structured report")
    parser.add_argument("--out", metavar="FILE", help="write the report to FILE")
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument("--exact", action="store_true", help="demand the exact rational backend")
    backend.add_argument("--float", action="store_true", help="force the float backend")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap on vertices")
    parser.add_argument("--jobs", type=_jobs, default=1,
                        help="parallel workers for sweeps (at most the CPU count)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenbasis of the weighted Laplacian")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("iso", help="isoperimetric constants with witnesses")
    p.add_argument("graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mode", choices=["disjoint", "partition", "both"], default="both")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("supergeometric", help="per-n geometric flags and overall verdict")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(fn=cmd_supergeometric)

    p = sub.add_parser("cheeger", help="mean-spectrum vs isoperimetric bounds")
    p.add_argument("graph")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=cmd_cheeger)

    p = sub.add_parser("nodal", help="sign-graph analysis of an eigenfunction")
    p.add_argument("graph")
    p.add_argument("--eigen", type=int, required=True)
    p.set_defaults(fn=cmd_nodal)

    p = sub.add_parser("compare", help="homomorphism comparison bounds")
    p.add_argument("graph_from")
    p.add_argument("graph_to")
    p.add_argument("--map", required=True)
    p.add_argument("--check", choices=["a", "b", "both", "none"], default="both")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("nohom", help="exhaustive onto-homomorphism search")
    p.add_argument("graph_from")
    p.add_argument("graph_to")
    p.add_argument("--mode", choices=ONTO_MODES, default="vertex_onto")
    p.add_argument("--cap-maps", type=int, default=10 ** 8, dest="cap_maps")
    p.set_defaults(fn=cmd_nohom)

    p = sub.add_parser("probe", help="experiment probes (findings, not assertions)")
    probes = p.add_subparsers(dest="experiment", required=True)
    e = probes.add_parser("three-clique", help="iota_3 and hub mass of three-clique graphs")
    e.add_argument("--sweep", type=_parse_range, default=(3, 3),
                   help="block-size range A..B with 1 <= A <= B")
    e.set_defaults(fn=cmd_probe_three_clique)
    e = probes.add_parser("circulant", help="supergeometric verdict of a circulant graph")
    e.add_argument("--order", type=_at_least_two, default=5)
    e.add_argument("--connections", default="1")
    e.set_defaults(fn=cmd_probe_circulant)
    e = probes.add_parser("gencheeger", help="generalized Cheeger bounds on the corpus")
    e.add_argument("--max-n", type=_at_least_two, default=None, dest="max_n")
    e.add_argument("--max-vertices", type=_at_least_two, default=6, dest="max_vertices")
    e.set_defaults(fn=cmd_probe_gencheeger)
    return parser


def _jobs(text):
    """A worker count of at least 1, clamped to the CPU count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return min(value, os.cpu_count() or 1)


def _at_least_two(text):
    """An integer of at least 2: a circulant's order, and the gencheeger probe's
    largest vertex count and largest n (its hypothesis concerns f_2..f_n)."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _parse_range(text):
    """A nonempty range A..B of block sizes (1 <= A <= B), or a single value A."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
    else:
        lo = hi = int(text)
    if lo < 1:
        raise argparse.ArgumentTypeError(f"block sizes must be at least 1, got {lo}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: {lo} > {hi}")
    return lo, hi


def _input_paths(args):
    paths = []
    for attr in ("graph", "graph_from", "graph_to", "map"):
        value = getattr(args, attr, None)
        if value:
            paths.append(value)
    return paths


def _render_text(report):
    lines = [f"isospec {report['version']} :: {' '.join(report['command'])}"]
    payload = report["payload"]
    lines.append(json.dumps(jsonable(payload), indent=2, sort_keys=True))
    for check in report["checks"]:
        status = "SKIP" if check.get("skipped") else "PASS" if check["passed"] else "FAIL"
        lines.append(f"[{status}] {check['name']}")
    for finding in report["findings"]:
        lines.append(f"[finding] {canonical_json(finding)}")
    lines.append(f"elapsed: {report['timing_s']:.3f}s")
    return "\n".join(lines)


@functools.cache
def _parser():
    """The parser, built on first use and shared by every later call: parsing
    keeps no state in it, and `_jobs` reads the CPU count at each parse."""
    return build_parser()


def run(argv):
    """Execute one CLI invocation; returns (exit_code, report dict), with no
    report when the command line does not parse or asks for help."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), None
    start = time.time()
    try:
        payload, checks, findings = args.fn(args)
        code = 0 if all(c["passed"] for c in checks) else 1
    except (IsospecError, ValueError) as exc:
        return 2, {"error": str(exc), "command": list(argv)}
    report = {
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": list(argv),
        "inputs": {path: digest_file(path) for path in _input_paths(args)},
        "payload": payload,
        "checks": checks,
        "findings": findings,
        "timing_s": time.time() - start,
    }
    return code, report


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    code, report = run(argv)
    if report is None:
        return code
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
        return code
    args = _parser().parse_args(argv)   # valid: run parsed it
    text = canonical_json(
        {k: v for k, v in report.items() if k != "timing_s"}
    ) if args.json else _render_text(report)
    if not args.out:
        print(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
