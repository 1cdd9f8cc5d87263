"""The four benchmark workloads: seeded op generation, set-up, ops, checks.

A workload's ops come in rounds.  A round is a balanced unit: every
combination the workload covers appears in it a fixed number of times, in
an order and with parameters drawn from ``numpy.random.default_rng((seed,
workload, round))``.  Runs consist of whole rounds, so runs with different
seeds do the same mix of work.  Only the generated inputs reach the
library.

Each op is executed in three steps: ``prepare`` (untimed: config files,
output directories), ``execute`` (timed) and ``check`` (untimed).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

import checks

FAMILIES = {
    "homogeneous": {"J": 1.0, "B": 0.0},
    "krawtchouk": {"q": 0.25},
    "rainbow": {"h": 1.0},
    "cosine": {"J0": 0.5},
    "asymmetric_cosine": {"J0": 0.75, "b": 5.0, "r": 2},
}
ZERO_FIELD = ("homogeneous", "rainbow", "cosine")   # B = 0: nu(e) + nu(-e) = 1
# A smooth custom chain on x in [0, 1] (lattice spacing 1/N).
CUSTOM = {"J": "1 + 0.5*sin(pi*x)", "B": "0.8*(x - 0.4)"}
REFERENCE = Path(__file__).parent / "catalog_reference.json"


def family_record(family: str, N: int) -> dict:
    return {"family": family, "parameters": dict(FAMILIES[family]), "N": N}


def profile_pair(fc, family: str, N: int):
    """(lattice, continuum) profile built through the public API."""
    if family == "custom":
        return fc.profiles.load_custom({"expressions": CUSTOM, "N": N,
                                        "lattice_spacing": 1.0 / N})
    return fc.profiles.from_config(family_record(family, N))


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], in random order.

    Every round then covers the whole range, so the cost mix of a round
    varies less from seed to seed than with independent draws.
    """
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(v) for v in lo + (hi - lo) * rng.permutation(u)]


def files_in(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


class Workload:
    name = ""
    trace_rounds = 1

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.fc = None

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, WORKLOAD_NAMES.index(self.name), k))

    def round(self, k: int) -> list[dict]:
        raise NotImplementedError

    def op_list_hash(self, rounds: int = 3) -> str:
        text = json.dumps([self.round(k) for k in range(rounds)], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def setup(self, fc) -> None:
        """Import-time state and fresh profile objects for one run."""
        self.fc = fc

    def prepare(self, op: dict):
        return None

    def execute(self, op: dict, ctx):
        raise NotImplementedError

    def check(self, op: dict, ctx, result) -> tuple[list[str], bool]:
        """(failures, known defect) for one op."""
        raise NotImplementedError

    def known_defect(self, op: dict, ctx) -> bool:
        """Whether a failure of this op, raised or checked, is a known defect."""
        return False

    def written(self, ctx) -> tuple[int, int]:
        """(files, bytes) an op wrote, which it then removes; runs after the check."""
        return 0, 0


class Catalog(Workload):
    """Each op is one reproduce target through ``cli.main``."""

    name = "catalog"
    trace_rounds = 4

    TARGETS = (
        "asymmetric-cosine-density", "asymmetric-cosine-frequencies", "cosine-density",
        "cosine-filling", "homogeneous-density", "krawtchouk-density",
        "krawtchouk-envelopes", "rainbow-density", "rainbow-envelopes", "rainbow-filling",
    )

    def round(self, k):
        order = self.rng(k).permutation(len(self.TARGETS))
        return [{"kind": "target", "name": self.TARGETS[i], "round": k} for i in order]

    def setup(self, fc):
        super().setup(fc)
        import fermichain.cli  # noqa: F401  (the CLI layer is part of set-up)
        self.reference = json.loads(REFERENCE.read_text())
        if sorted(self.reference) != sorted(fc.cli.reproduce_catalog()) or \
                sorted(self.reference) != sorted(self.TARGETS):
            raise RuntimeError("catalog targets differ from the recorded reference")
        cfg_dir = self.run_dir / "catalog-config"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for name in self.reference:
            path = cfg_dir / f"{name}.json"
            text = json.dumps({"targets": [name]})
            # Rewriting an existing file is slow on some filesystems; skip it.
            if not path.is_file() or path.read_text() != text:
                path.write_text(text)
            self.configs[name] = path
        self.out = self.run_dir / "out" / "catalog"
        shutil.rmtree(self.out, ignore_errors=True)

    def prepare(self, op):
        out = self.out / f"round{op['round']}"
        return ["reproduce", "--config", str(self.configs[op["name"]]),
                "--out", str(out), "--deterministic"], out / op["name"]

    def execute(self, op, ctx):
        return self.fc.cli.main(ctx[0])

    def check(self, op, ctx, rc):
        if rc != 0:
            return [f"exit code {rc}"], False
        return checks.check_catalog_target(ctx[1], self.reference[op["name"]]), False

    def written(self, ctx):
        n = files_in(ctx[1])
        shutil.rmtree(ctx[1], ignore_errors=True)
        return n


class ExactLarge(Workload):
    """CLI spectrum and density tasks and a library entanglement pass."""

    name = "exact-large"
    SIZES = (2000, 4000)

    def round(self, k):
        rng = self.rng(k)
        ops = []
        for N in self.SIZES:
            # The correlation matrix costs O(N^2 M) and the two block entropies
            # O(l^3 + (N-l)^3): M and l stay near N/2 so that the entropy ops,
            # the slowest of the round, cost about the same on every seed.
            fills = dict(zip(FAMILIES, stratified(rng, 0.45, 0.55, len(FAMILIES))))
            blocks = dict(zip(FAMILIES, stratified(rng, 0.45, 0.5, len(FAMILIES))))
            for fam in FAMILIES:
                ops.append({"kind": "spectrum", "family": fam, "N": N})
                Ms = rng.choice(np.arange(N // 20, N - N // 20), size=2, replace=False)
                ops.append({"kind": "density", "family": fam, "N": N,
                            "fillings": [int(m) / N for m in sorted(Ms)]})
                ops.append({"kind": "entangle", "family": fam, "N": N,
                            "M": int(fills[fam] * N), "ell": int(blocks[fam] * N)})
        return [ops[i] for i in rng.permutation(len(ops))]

    def setup(self, fc):
        super().setup(fc)
        import fermichain.cli  # noqa: F401
        self.lattices = {(f, N): profile_pair(fc, f, N)[0] for f in FAMILIES for N in self.SIZES}
        self.out = self.run_dir / "out" / "exact-large"
        shutil.rmtree(self.out, ignore_errors=True)
        self.count = 0

    def prepare(self, op):
        if op["kind"] == "entangle":
            return None
        self.count += 1
        out = self.out / f"op{self.count}"
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"profile": family_record(op["family"], op["N"])}
        if op["kind"] == "density":
            cfg["fillings"] = op["fillings"]
        path = out / "config.json"
        path.write_text(json.dumps(cfg))
        return [op["kind"], "--config", str(path), "--out", str(out), "--deterministic"], out

    def execute(self, op, ctx):
        if ctx is not None:
            return self.fc.cli.main(ctx[0])
        exact = self.fc.exact
        lat = self.lattices[(op["family"], op["N"])]
        s = exact.diagonalize(lat)
        st = exact.filled_state(s, op["M"])
        C = exact.correlation_matrix(s, st)
        return (C,
                exact.entanglement_entropy(C, (0, op["ell"])),
                exact.entanglement_entropy(C, (op["ell"], op["N"])))

    def check(self, op, ctx, result):
        fam, N = op["family"], op["N"]
        if op["kind"] == "entangle":
            C, s1, s2 = result
            return checks.check_entanglement(op["M"], float(np.trace(C.entries)), s1, s2), False
        if result != 0:
            return [f"exit code {result}"], False
        analytic = self.fc.analytic
        hom = FAMILIES["homogeneous"]
        if op["kind"] == "spectrum":
            energies = checks.read_table(ctx[1] / "spectrum.csv").get("energy", [])
            expected = None
            if fam == "krawtchouk":
                expected = np.arange(N) / N
            elif fam == "homogeneous":
                expected = analytic.homogeneous_spectrum(hom["J"], hom["B"], N)[0]
            return checks.check_spectrum(fam, energies, self.lattices[(fam, N)].fields,
                                         expected), False
        out = []
        for nu in op["fillings"]:
            M = int(round(nu * N))
            cols = checks.read_table(ctx[1] / f"density_M{M}.csv")
            if "density_exact" not in cols:
                out.append(f"density_M{M}.csv missing or malformed")
                continue
            expected = (analytic.homogeneous_density_exact(hom["J"], hom["B"], N, M)
                        if fam == "homogeneous" else None)
            out += checks.check_density(M, cols["density_exact"], cols["density_wkb"], expected)
        return out, False

    def written(self, ctx):
        if ctx is None:
            return 0, 0
        (ctx[1] / "config.json").unlink(missing_ok=True)
        n = files_in(ctx[1])
        shutil.rmtree(ctx[1], ignore_errors=True)
        return n


class WkbSweep(Workload):
    """Filling fractions, wells, densities, inversions and wavefunctions."""

    name = "wkb-sweep"
    SIZES = (400, 4000)
    PROFILES = tuple(FAMILIES) + ("custom",)
    ENERGIES_PER_PROFILE = 4
    # Wavefunctions on 400 mode positions only: at N=4000 one op takes ~0.5 s,
    # ten times any other op, and would fill most of a run with few samples.
    WAVEFUNCTION_N = 400

    # The fillings of the inversions and the energies of the wavefunctions
    # cycle through this many strata over consecutive rounds.
    CYCLE = 6

    def cycled(self, rng, stream: int, draw: int, lo: float, hi: float) -> float:
        """Draw number ``draw`` of a stream: its stratum follows a seeded cycle."""
        order = np.random.default_rng((self.seed, WORKLOAD_NAMES.index(self.name),
                                       1000 + stream)).permutation(self.CYCLE)
        return float(lo + (hi - lo) * (order[draw % self.CYCLE] + rng.uniform()) / self.CYCLE)

    def round(self, k):
        rng = self.rng(k)
        groups = []
        for i, prof in enumerate(self.PROFILES):
            for j, N in enumerate(self.SIZES):
                key = {"profile": prof, "N": N}
                for t in stratified(rng, 0.02, 0.98, self.ENERGIES_PER_PROFILE):
                    groups.append([{**key, "kind": kind, "t": t}
                                   for kind in ("filling", "wells", "density")])
                nu = self.cycled(rng, 2 * i + j, k, 0.05, 0.95)
                groups.append([{**key, "kind": "invert", "nu": nu}])
            for half in (0, 1):
                t = self.cycled(rng, 100 + 2 * i + half, k, 0.05 + 0.45 * half, 0.5 + 0.45 * half)
                groups.append([{"profile": prof, "N": self.WAVEFUNCTION_N,
                                "kind": "wavefunction", "t": t}])
        return [op for i in rng.permutation(len(groups)) for op in groups[i]]

    def setup(self, fc):
        super().setup(fc)
        self.pairs = {(p, N): profile_pair(fc, p, N) for p in self.PROFILES for N in self.SIZES}
        self.bounds = {key: fc.profiles.band_bounds(c) for key, (_, c) in self.pairs.items()}

    def prepare(self, op):
        lat, cont = self.pairs[(op["profile"], op["N"])]
        lo, hi = self.bounds[(op["profile"], op["N"])]
        return lat, cont, (lo + op["t"] * (hi - lo) if "t" in op else None)

    def execute(self, op, ctx):
        wkb = self.fc.wkb
        lat, cont, e = ctx
        kind = op["kind"]
        if kind == "filling":
            return wkb.filling_fraction(cont, e)
        if kind == "wells":
            wd = wkb.wells(cont, e)
            return wd, (wkb.well_frequencies(wd) if not wd.is_empty else None)
        if kind == "density":
            return wkb.density_profile(cont, e, lat.site_positions)
        if kind == "invert":
            return wkb.invert_filling(cont, op["nu"])
        wd = wkb.wells(cont, e)
        return (wkb.wkb_wavefunction(cont, e, wd, lat.mode_positions),
                wkb.envelope(cont, e, wd, lat.mode_positions))

    def check(self, op, ctx, result):
        wkb = self.fc.wkb
        lat, cont, e = ctx
        kind, prof = op["kind"], op["profile"]
        if kind == "filling":
            mirror = wkb.filling_fraction(cont, -e) if prof in ZERO_FIELD else None
            closed = (self.fc.analytic.rainbow_filling(FAMILIES["rainbow"]["h"], e)
                      if prof == "rainbow" else None)
            return checks.check_filling(prof, e, result, mirror, closed), False
        if kind == "wells":
            wd, freqs = result
            return checks.check_wells(len(wd.wells), freqs), False
        if kind == "density":
            return checks.check_profile_density(result.density), False
        if kind == "invert":
            return checks.check_inversion(op["nu"], wkb.filling_fraction(cont, result)), False
        (x_psi, psi), (x_env, env) = result
        return checks.check_wavefunction(x_psi, psi, x_env, env), False

    def known_defect(self, op, ctx):
        _, cont, e = ctx
        return e is not None and checks.near_critical_energy(
            cont, e, self.bounds[(op["profile"], op["N"])])


class Kernel(Workload):
    """wkb_correlation_kernel against exact C_nm on three families."""

    name = "kernel"
    N = 400
    # Narrow filling and position windows keep the cost of each op type
    # steady across seeds: the energy grid grows with M and the phase
    # quadrature depends on x.
    M_RANGE = {"homogeneous": (118, 122), "krawtchouk": (48, 52), "rainbow": (48, 52)}
    SITES = (150, 158)

    def round(self, k):
        rng = self.rng(k)
        ops = []
        for fam, (lo, hi) in self.M_RANGE.items():
            for diagonal in (True, False):
                # Bulk sites left of the centre, where the rainbow chain has a kink.
                n = int(rng.integers(self.SITES[0], self.SITES[1] + 1))
                m = n if diagonal else n + int(rng.integers(2, 9))
                ops.append({"kind": "kernel", "family": fam, "M": int(rng.integers(lo, hi + 1)),
                            "n": n, "m": m})
        return [ops[i] for i in rng.permutation(len(ops))]

    def setup(self, fc):
        super().setup(fc)
        self.pairs = {f: profile_pair(fc, f, self.N) for f in self.M_RANGE}
        self.spectra = {f: fc.exact.diagonalize(lat) for f, (lat, _) in self.pairs.items()}
        self.exact_c = {}

    def prepare(self, op):
        s = self.spectra[op["family"]]
        return float(s.energies[op["M"] - 1])

    def execute(self, op, eps_f):
        lat, cont = self.pairs[op["family"]]
        a = lat.lattice_spacing
        return self.fc.wkb.wkb_correlation_kernel(cont, eps_f, (op["n"] + 1) * a,
                                                  (op["m"] + 1) * a)

    def check(self, op, eps_f, value):
        key = (op["family"], op["M"])
        if key not in self.exact_c:
            exact = self.fc.exact
            s = self.spectra[op["family"]]
            self.exact_c[key] = exact.correlation_matrix(s, exact.filled_state(s, op["M"])).entries
        return checks.check_kernel(op["family"], value, float(self.exact_c[key][op["n"], op["m"]]))


WORKLOADS = {w.name: w for w in (Catalog, ExactLarge, WkbSweep, Kernel)}
WORKLOAD_NAMES = list(WORKLOADS)
