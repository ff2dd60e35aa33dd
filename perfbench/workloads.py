"""The three workloads: seeded inputs, one operation at a time, oracle checks.

Each workload has four parts.
  * `setup()` is the program work done before the first timed operation; the
    benchmark times it from a fresh interpreter.
  * `prepare()` builds the oracle's side (untimed) and checks what setup made.
  * `round(r)` returns round r's operations, drawn from `random.Random` seeded
    with the run seed and r, so one seed always gives the same inputs.
  * `run(op)` is the timed call into the program; `check(op, out)` compares
    its output with the oracle and returns an error string or None.

Program functions are always looked up as module attributes (`self.iso.f`)
so that the tracer's wrappers, installed on those modules, are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

F = Fraction
FLOAT_TOL = 1e-9
KERNELS = ("natural", "lazy", "explicit")
MODES = ("disjoint", "partition", "both")


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def random_digraph(rng, vcount, out_degree):
    """A random strongly connected digraph in which every vertex has the same
    out-degree: a Hamiltonian cycle in random vertex order plus out_degree - 1
    further out-arcs per vertex, drawn without replacement.  A fixed out-degree
    keeps the minimizer's cost from one graph to the next far steadier than
    independent arcs do."""
    order = rng.sample(range(vcount), vcount)
    arcs = {(order[i], order[(i + 1) % vcount]) for i in range(vcount)}
    for u in range(vcount):
        others = [v for v in range(vcount) if v != u and (u, v) not in arcs]
        arcs.update((u, v) for v in rng.sample(others, out_degree - 1))
    return sorted(arcs)


def random_kernel(rng, vcount, arcs):
    """Integer weights 1..9 on the out-arcs, normalized per row."""
    rows = [[F(0)] * vcount for _ in range(vcount)]
    for u in range(vcount):
        outs = [v for a, v in arcs if a == u]
        weights = [rng.randint(1, 9) for _ in outs]
        for v, w in zip(outs, weights):
            rows[u][v] = F(w, sum(weights))
    return rows


# ---------------------------------------------------------------------------
# iso_queries: one CLI request per operation
# ---------------------------------------------------------------------------

class IsoQueries:
    """`isospec --json iso|supergeometric` requests through `cli.run`.

    A round holds the fixed requests and SUBROUNDS subrounds of random ones,
    so every run, however many rounds fit in it, has the same make-up: a
    fixed request's share of the operations never depends on how fast the
    machine is.  Round 0 uses the fixed documents as built; later rounds
    relabel their vertices at random, so no request is ever asked twice.

    A subround asks one exact request for every size V in 7, 8, 9 and every
    n in 2..V-1, each on its own random strongly connected digraph of
    out-degree 3.  The mode and the kernel (natural, lazy, explicit rational)
    rotate with n and the subround, so every three (nine) subrounds cover each
    (n, mode) ((n, mode, kernel)) once.  Two requests per size, at positions
    that rotate with the subround, are repeated with --float: a quarter of the
    random requests.
    """

    name = "iso_queries"
    SUBROUNDS = 12
    SIZES = (7, 8, 9)
    OUT_DEGREE = 3
    FLOAT_PER_SIZE = 2
    FIXED = (
        ("petersen", ["iso", "-n", "5"], 10, oracle.petersen_arcs),
        ("threeclique3", ["supergeometric"], 10, lambda: oracle.three_clique_arcs(3)),
        ("c11", ["iso", "-n", "5", "--mode", "disjoint"], 11, lambda: oracle.cycle_arcs(11)),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.docs = {}         # path -> document as written, until it is checked
        self.last = (None, None)   # (path, oracle.Chain): a --float repeat follows its twin

    def fixed_documents(self):
        """The seed-independent documents, written before the program starts."""
        for name, _, vcount, arcs in self.FIXED:
            self._write(f"{name}.json", {"vertices": vcount, "arcs": arcs(), "kernel": {"type": "natural"}})

    def _write(self, filename, doc):
        path = os.path.join(self.workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.docs[path] = doc
        return path

    def setup(self, program):
        self.cli = program.cli
        self.reports = program.reports
        for name, *_ in self.FIXED:
            with open(os.path.join(self.workdir, f"{name}.json"), encoding="utf-8") as fh:
                program.documents.parse_chain(fh.read())

    def prepare(self):
        for name, *_ in self.FIXED:
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, encoding="utf-8") as fh:
                self.docs[path] = json.load(fh)
        return []

    def _oracle(self, path):
        if self.last[0] != path:
            doc = self.docs.pop(path)
            vcount, arcs, kernel = doc["vertices"], [tuple(a) for a in doc["arcs"]], doc["kernel"]
            if kernel["type"] == "natural":
                rows = oracle.natural_kernel(vcount, arcs)
            elif kernel["type"] == "lazy":
                rows = oracle.lazy_kernel(vcount, arcs)
            else:
                rows = [[oracle.parse_rational(x) for x in row] for row in kernel["matrix"]]
            self.last = (path, oracle.Chain(rows))
        return self.last[1]

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = []
        for name, argv, vcount, arcs in self.FIXED:
            if r == 0:
                path = os.path.join(self.workdir, f"{name}.json")
            else:
                perm = rng.sample(range(vcount), vcount)
                path = self._write(f"r{r:05d}_{name}.json", {
                    "vertices": vcount,
                    "arcs": sorted([perm[u], perm[v]] for u, v in arcs()),
                    "kernel": {"type": "natural"},
                })
            ops.append(["--json", argv[0], path] + argv[1:])
        for sub in range(r * self.SUBROUNDS, (r + 1) * self.SUBROUNDS):
            ops += self._subround(rng, sub)
        return ops

    def _subround(self, rng, sub):
        ops = []
        for vcount in self.SIZES:
            ns = range(2, vcount)
            repeats = {ns[(sub * self.FLOAT_PER_SIZE + i) % len(ns)] for i in range(self.FLOAT_PER_SIZE)}
            for n in ns:
                mode = MODES[(n + sub) % 3]
                kind = KERNELS[(n + sub // 3) % 3]
                arcs = random_digraph(rng, vcount, self.OUT_DEGREE)
                kernel = {"type": kind}
                if kind == "explicit":
                    kernel["matrix"] = [
                        [f"{x.numerator}/{x.denominator}" for x in row]
                        for row in random_kernel(rng, vcount, arcs)
                    ]
                path = self._write(
                    f"s{sub:05d}_v{vcount}_n{n}.json",
                    {"vertices": vcount, "arcs": [list(a) for a in arcs], "kernel": kernel},
                )
                ops.append(["--json", "iso", path, "-n", str(n), "--mode", mode])
                if n in repeats:
                    ops.append(["--json", "--float", "iso", path, "-n", str(n), "--mode", mode])
        return ops

    def run(self, argv):
        code, report = self.cli.run(argv)
        if report is None or "error" in report:
            return code, None
        return code, self.reports.canonical_json(
            {k: v for k, v in report.items() if k != "timing_s"}
        )

    def check(self, argv, out):
        code, text = out
        if code != 0 or text is None:
            return f"exit code {code}"
        report = json.loads(text)
        is_float = "--float" in argv
        path = argv[3] if is_float else argv[2]
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if report["command"] != argv or report["inputs"] != {path: digest}:
            return "report echoes the wrong command or input digest"
        chain = self._oracle(path)
        payload = report["payload"]
        if argv[argv.index(path) - 1] == "supergeometric":
            return self._check_supergeometric(chain, payload)
        n = int(argv[argv.index("-n") + 1])
        mode = argv[argv.index("--mode") + 1] if "--mode" in argv else "both"
        if payload["n"] != n or payload["mode"] != mode:
            return "payload echoes the wrong n or mode"
        sides = (
            ("disjoint", "iota", "witness", chain.iota, False),
            ("partition", "iota_tilde", "witness_tilde", chain.iota_tilde, True),
        )
        for side, key, wkey, truth, partition in sides:
            if mode not in (side, "both"):
                if key in payload:
                    return f"{key} reported for mode {mode}"
                continue
            want = truth(n)
            witness = payload[wkey]
            if not chain.family_ok(witness, n, partition):
                return f"{wkey} {witness} is not a valid family"
            value = chain.objective(witness)
            if is_float:
                got = float(payload[key])
                if abs(got - float(want)) > FLOAT_TOL or abs(float(value) - got) > FLOAT_TOL:
                    return f"{key} {got!r}: oracle {want}, witness objective {value}"
            else:
                got = oracle.parse_rational(payload[key])
                if got != want or value != got:
                    return f"{key} {got}: oracle {want}, witness objective {value}"
        return None

    @staticmethod
    def _check_supergeometric(chain, payload):
        vcount = chain.vcount
        rows = payload["rows"]
        if [row["n"] for row in rows] != list(range(2, vcount + 1)) or payload["max_n"] != vcount:
            return "supergeometric rows do not cover n = 2..V"
        for row in rows:
            n = row["n"]
            iota, tilde = oracle.parse_rational(row["iota"]), oracle.parse_rational(row["iota_tilde"])
            if iota != chain.iota(n) or tilde != chain.iota_tilde(n):
                return f"n={n}: ({iota}, {tilde}) against oracle ({chain.iota(n)}, {chain.iota_tilde(n)})"
            if row["geometric"] != (iota == tilde):
                return f"n={n}: wrong geometric flag"
        if payload["supergeometric"] != all(row["geometric"] for row in rows):
            return "wrong supergeometric verdict"
        return None


# ---------------------------------------------------------------------------
# inequality_sweep: one (chain, n) block of the Federer-Fleming and
# structural-inequality checks per operation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    chain: int                                   # index into InequalitySweep.chains
    n: int
    rng: random.Random = field(repr=False, compare=False)


class InequalitySweep:
    """Criteria 1 and 2 on the small corpus plus seeded random rational chains.

    The chains are the corpus graphs of at most 5 vertices (natural walks) and
    a pool of random 5- and 6-vertex digraphs of out-degree 3 with random
    rational kernels.  Each round runs one block for every corpus chain and n,
    and for every n of the next RANDOM_PER_ROUND pool chains, in seeded order.  A block draws
    FAMILIES positive families (gamma, level-set rounding, rounded objective),
    scores the characteristic family of the witness, and checks the S/T
    bounds on PROPOSITIONS random disjoint families.
    """

    name = "inequality_sweep"
    FAMILIES = 12
    PROPOSITIONS = 6
    POOL_SIZES = (5, 6) * 12
    RANDOM_PER_ROUND = 6
    OUT_DEGREE = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = _rng(self.name, seed, "pool")
        self.pool = []
        for vcount in self.POOL_SIZES:
            arcs = random_digraph(rng, vcount, self.OUT_DEGREE)
            self.pool.append((vcount, arcs, random_kernel(rng, vcount, arcs)))

    def setup(self, program):
        self.iso = program.isoperimetry
        chains = [chain for _, chain in program.corpus.small_corpus_chains()]
        self.corpus_count = len(chains)
        for vcount, arcs, kernel in self.pool:
            chains.append(program.chains.build_chain(program.graphs.make_graph(vcount, arcs), kernel))
        self.chains = chains
        self.tables = [self.iso.isoperimetric_table(chain) for chain in chains]

    def prepare(self):
        """Oracle chains, and the exact check of the set-up's stationary laws
        and iota tables (witnesses included)."""
        self.oracles = []
        errors = []
        for i, chain in enumerate(self.chains):
            vcount = chain.graph.vertex_count
            if i < self.corpus_count:
                ochain = oracle.Chain(oracle.natural_kernel(vcount, sorted(chain.graph.arcs)))
            else:
                ochain = oracle.Chain(self.pool[i - self.corpus_count][2])
            self.oracles.append(ochain)
            if list(chain.pi) != ochain.pi:
                errors.append(f"chain {i}: stationary law differs from the oracle")
            for n, rep in enumerate(self.tables[i], start=1):
                if rep.iota != ochain.iota(n) or rep.iota_tilde != ochain.iota_tilde(n):
                    errors.append(f"chain {i}, n={n}: iota table differs from the oracle")
                elif ochain.objective(rep.witness.classes) != rep.iota:
                    errors.append(f"chain {i}, n={n}: witness does not attain iota")
        return errors

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        first = self.corpus_count + (r * self.RANDOM_PER_ROUND) % len(self.pool)
        picked = list(range(self.corpus_count)) + list(range(first, first + self.RANDOM_PER_ROUND))
        blocks = [(i, n) for i in picked for n in range(1, self.chains[i].graph.vertex_count + 1)]
        rng.shuffle(blocks)
        return [Block(i, n, _rng(self.name, self.seed, r, i, n)) for i, n in blocks]

    def run(self, block):
        iso, n, rng = self.iso, block.n, block.rng
        chain = self.chains[block.chain]
        families = []
        for _ in range(self.FAMILIES):
            fam = iso.random_positive_family(chain, n, rng)
            gamma = iso.gamma_objective(chain, fam)
            rounded = iso.level_set_rounding(chain, fam)
            families.append((fam, gamma, rounded, iso.family_objective(chain, rounded)))
        witness = self.tables[block.chain][n - 1].witness
        char = iso.gamma_objective(chain, iso.characteristic_family(chain, witness))
        props = []
        for _ in range(self.PROPOSITIONS):
            fam = iso.random_disjoint_family(chain, n, rng)
            props.append((fam, iso.proposition_bounds_check(chain, fam)))
        return families, char, props

    def check(self, block, out):
        n, ochain = block.n, self.oracles[block.chain]
        iota = ochain.iota(n)
        families, char, props = out
        for fam, gamma, rounded, objective in families:
            if not ochain.positive_family_ok(fam.functions, n):
                return "drawn family is not positive-orthonormal"
            if gamma != ochain.gamma(fam.functions):
                return f"gamma {gamma} differs from the oracle's {ochain.gamma(fam.functions)}"
            if gamma < iota:
                return f"gamma {gamma} below iota_{n} = {iota}"
            if not ochain.family_ok(rounded.classes, n, False):
                return "rounded family is not a disjoint family"
            want = ochain.objective(rounded.classes)
            if objective != want or objective > gamma:
                return f"rounded objective {objective} (oracle {want}) against gamma {gamma}"
        if char != iota:
            return f"characteristic family gamma {char} differs from iota_{n} = {iota}"
        for fam, result in props:
            if not ochain.family_ok(fam.classes, n, False):
                return "drawn family is not a disjoint family"
            bounds = ochain.proposition_bounds(fam.classes)
            if set(result) != set(bounds):
                return f"propositions {sorted(result)} reported, {sorted(bounds)} expected"
            for key, (lhs, rhs) in bounds.items():
                got = result[key]
                if (got["lhs"], got["rhs"]) != (lhs, rhs) or not got["holds"] or lhs > rhs:
                    return f"proposition {key}: {got} against oracle ({lhs}, {rhs})"
        return None


# ---------------------------------------------------------------------------
# compare_sweep: one onto homomorphism and its comparison check per operation
# ---------------------------------------------------------------------------

class CompareSweep:
    """Comparison bounds along onto homomorphisms, criterion 8's shape.

    Each round checks, at seeded map indices: 3 vertex-onto maps C8 -> C4
    (part a), 10 edge-onto maps C8 -> C4 and 3 edge-onto maps K3,3 -> C4
    (part b), and 4 maps of criterion 8's pairs C6 -> K2, C4 -> C4 and
    K3 -> K3 (part a for vertex-onto, part b for edge-onto).
    """

    name = "compare_sweep"
    GRAPHS = {
        "c8": (8, oracle.cycle_arcs(8), oracle.cycle_spectrum(8)),
        "c6": (6, oracle.cycle_arcs(6), oracle.cycle_spectrum(6)),
        "c4": (4, oracle.cycle_arcs(4), oracle.cycle_spectrum(4)),
        "k33": (6, oracle.k33_arcs(), oracle.k33_spectrum()),
        "k3": (3, oracle.complete_arcs(3), oracle.complete_spectrum(3)),
        "k2": (2, oracle.complete_arcs(2), oracle.complete_spectrum(2)),
    }
    ROUND = (
        (3, (("c8", "c4", "vertex_onto"),)),
        (10, (("c8", "c4", "edge_onto"),)),
        (3, (("k33", "c4", "edge_onto"),)),
        (4, tuple(
            (src, dst, mode)
            for src, dst in (("c6", "k2"), ("c4", "c4"), ("k3", "k3"))
            for mode in ("vertex_onto", "edge_onto")
        )),
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self, program):
        self.hom = program.homomorphism
        self.chains = {
            name: program.chains.natural_walk(program.graphs.make_graph(n, arcs))
            for name, (n, arcs, _) in self.GRAPHS.items()
        }

    def prepare(self):
        """Oracle chains with their iota tables, and the program's onto-map
        counts against the brute-force counts."""
        self.oracles = {
            name: oracle.Chain(oracle.natural_kernel(n, arcs)) for name, (n, arcs, _) in self.GRAPHS.items()
        }
        self.maps = {}
        for _, kinds in self.ROUND:
            for src, dst, mode in kinds:
                ns, arcs_s, _ = self.GRAPHS[src]
                nd, arcs_d, _ = self.GRAPHS[dst]
                self.maps[src, dst, mode] = oracle.onto_maps(ns, arcs_s, nd, arcs_d, mode)
        errors = []
        for (src, dst, mode), maps in self.maps.items():
            got = sum(1 for _ in self.hom.onto_homomorphisms(
                self.chains[src].graph, self.chains[dst].graph, mode))
            if got != len(maps):
                errors.append(f"{src}->{dst} {mode}: {got} maps, brute force {len(maps)}")
        return errors

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = []
        for count, kinds in self.ROUND:
            for _ in range(count):
                key = kinds[rng.randrange(len(kinds))]
                ops.append(key + (rng.randrange(len(self.maps[key])),))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        src, dst, mode, index = op
        g_from, g_to = self.chains[src], self.chains[dst]
        maps = self.hom.onto_homomorphisms(g_from.graph, g_to.graph, mode)
        for _ in range(index):
            next(maps)
        witness = next(maps)
        return witness, self.hom.comparison_check(g_from, g_to, witness, "a" if mode == "vertex_onto" else "b")

    def check(self, op, out):
        src, dst, mode, index = op
        witness, report = out
        sigma = self.maps[src, dst, mode][index]
        if tuple(witness.mapping) != sigma:
            return f"map {index} is {witness.mapping}, brute force {sigma}"
        o_from, o_to = self.oracles[src], self.oracles[dst]
        spec_from, spec_to = self.GRAPHS[src][2], self.GRAPHS[dst][2]
        n, m = o_from.vcount, o_to.vcount
        factor_a, factor_b = oracle.comparison_factors(o_from, o_to, self.GRAPHS[src][1], sigma)
        if not report["holds"]:
            return "comparison reported as failing"
        if mode == "vertex_onto":
            part = report["part_a"]
            if part["factor"] != factor_a or not part["holds"] or len(part["rows"]) != m:
                return f"part a factor {part['factor']} (oracle {factor_a}) or verdict"
            for k, row in enumerate(part["rows"], start=1):
                lam_f, lam_t = spec_from[k - 1], spec_to[k - 1]
                iota_f, iota_t = o_from.iota(k), o_to.iota(k)
                if (
                    abs(row["lambda_from"] - lam_f) > FLOAT_TOL
                    or abs(row["lambda_to"] - lam_t) > FLOAT_TOL
                    or row["iota_from"] != iota_f
                    or row["iota_to"] != iota_t
                ):
                    return f"part a row {k}: {row} against closed forms and oracle iota"
                if not (row["lambda_holds"] and row["iota_holds"]):
                    return f"part a row {k} fails"
                if lam_f > float(factor_a) * lam_t + FLOAT_TOL or iota_f > factor_a * iota_t:
                    return f"part a row {k} fails on the oracle's values"
        else:
            part = report["part_b"]
            if part["factor"] != factor_b or not part["holds"] or len(part["rows"]) != m:
                return f"part b factor {part['factor']} (oracle {factor_b}) or verdict"
            for k, row in enumerate(part["rows"], start=1):
                lam_f, lam_t = spec_from[n - m + k - 1], spec_to[k - 1]
                if abs(row["lambda_from"] - lam_f) > FLOAT_TOL or abs(row["lambda_to"] - lam_t) > FLOAT_TOL:
                    return f"part b row {k}: {row} against closed forms"
                if not row["holds"] or lam_f < float(factor_b) * lam_t - FLOAT_TOL:
                    return f"part b row {k} fails"
        return None


WORKLOADS = {cls.name: cls for cls in (IsoQueries, InequalitySweep, CompareSweep)}
