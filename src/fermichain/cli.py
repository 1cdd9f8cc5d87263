"""Config-driven command line harness.

    chain <task> --config <file> [--out <dir>] [--format csv|json] [--deterministic]

Tasks: spectrum, density, filling-curve, wells, envelope, frequencies,
compare, reproduce.  The config file is JSON with a "profile" block
(builtin family or custom record, see profiles.from_config) plus task
parameters.  Outputs are plot-ready CSV (17 significant digits) or JSON,
each with a header echoing the config; timestamps are suppressed under
--deterministic so reruns byte-reproduce the data.  Exit codes: 1 config
error, 2 numerical error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import __version__, analytic, exact, numerics, profiles, wkb
from .numerics import NumericsError
from .profiles import _is_int, _is_real, _keys

EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    task: str
    profile: dict
    params: dict
    out_dir: Path
    fmt: str = "csv"
    deterministic: bool = False


# --- output helpers -------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_table(cfg: RunConfig, name: str, meta: dict, columns: Dict[str, Sequence]):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "config": {"task": cfg.task, "profile": cfg.profile, "params": cfg.params},
        "tolerances": {
            "quadrature": {"abs": numerics.QUAD_ABS_TOL, "rel": numerics.QUAD_REL_TOL},
            "root": {"abs": numerics.ROOT_ABS_TOL, "rel": numerics.ROOT_REL_TOL},
        },
        "version": f"fermichain {__version__}",
        **meta,
    }
    if not cfg.deterministic:
        header["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    names = list(columns)
    rows = zip(*(columns[k] for k in names)) if names else []
    if cfg.fmt == "json":
        path = cfg.out_dir / f"{name}.json"
        payload = {
            "meta": header,
            "columns": {k: [None if _is_nan(v) else float(v) for v in columns[k]]
                        if _is_float_col(columns[k]) else list(columns[k])
                        for k in names},
        }
        path.write_text(json.dumps(payload, indent=2))
    else:
        path = cfg.out_dir / f"{name}.csv"
        lines = [f"# {k}: {json.dumps(v) if isinstance(v, dict) else v}"
                 for k, v in header.items()]
        lines.append(",".join(names))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
    return path


def _is_float_col(col) -> bool:
    return len(col) > 0 and isinstance(col[0], (float, np.floating, int, np.integer))


def _is_nan(v) -> bool:
    return isinstance(v, (float, np.floating)) and np.isnan(v)


# --- task runners ----------------------------------------------------------

def _read_json(path: Path, what: str):
    """Parsed JSON file; a missing file or a syntax error is a ConfigError."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} parse error in {path}: line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc


def _profile_pair(cfg: RunConfig):
    record = cfg.profile
    if isinstance(record, dict) and "path" in record:
        _keys(record, "profile path record", ("path",))
        if not isinstance(record["path"], str):
            raise ConfigError(f"profile path must be a string, got {record['path']!r}")
        record = _read_json(Path(record["path"]), "profile")
    return profiles.from_config(record)


def _continuum_pair(cfg: RunConfig):
    """The profile pair of a task that needs the continuum profile."""
    lat, cont = _profile_pair(cfg)
    if cont is None:
        raise ConfigError(f"task {cfg.task!r} needs a continuum profile "
                          "(builtin family or expression record)")
    return lat, cont


def _list_of(params: dict, key: str, check, what: str) -> list:
    values = params[key]
    if not (isinstance(values, list) and values and all(check(v) for v in values)):
        raise ConfigError(f"{key!r} must be a nonempty list of {what}, got {values!r}")
    return values


def _energy_and_modes(cfg: RunConfig, lat, need_modes: bool = False):
    """(energy, mode index or None, spectrum or None) of a task that takes
    exactly one of ``energy`` and ``mode_index``.

    The chain is diagonalized once, when a mode index is given or
    ``need_modes`` is set; the mode's energy comes from that spectrum.
    """
    params = cfg.params
    if ("energy" in params) == ("mode_index" in params):
        raise ConfigError("task needs 'energy' or 'mode_index', not both")
    if "energy" in params:
        k, e = None, params["energy"]
        if not _is_real(e):
            raise ConfigError(f"energy must be a finite number, got {e!r}")
    else:
        k = params["mode_index"]
        if not _is_int(k):
            raise ConfigError(f"mode_index must be an integer, got {k!r}")
        if not 0 <= k < lat.num_sites:
            raise ConfigError(f"mode_index {k} outside [0, {lat.num_sites})")
    spectrum = exact.diagonalize(lat) if k is not None or need_modes else None
    if k is not None:
        e = spectrum.energies[k]
    return float(e), k, spectrum


def run_spectrum(cfg: RunConfig) -> List[Path]:
    lat, _ = _profile_pair(cfg)
    return [_write_table(cfg, "spectrum", {"N": lat.num_sites},
                         {"k": list(range(lat.num_sites)),
                          "energy": list(exact.eigenvalues(lat))})]


def _fillings_to_M(params: dict, N: int) -> List[int]:
    if "fillings" in params:
        fillings = _list_of(params, "fillings", _is_real, "finite numbers")
        out = [int(round(nu * N)) for nu in fillings]
    elif "M" in params:
        out = _list_of(params, "M", _is_int, "integers")
    else:
        raise ConfigError("density/compare tasks need 'fillings' or 'M'")
    bad = [M for M in out if not 1 <= M <= N]
    if bad:
        raise ConfigError(f"particle numbers {bad} outside [1, {N}]")
    return out


def _filled_densities(cfg: RunConfig):
    """(lattice, M, eps_F, exact a*rho, WKB density profile) for each filling
    of the config, all from one eigensolve."""
    lat, cont = _continuum_pair(cfg)
    Ms = _fillings_to_M(cfg.params, lat.num_sites)
    spectrum = exact.diagonalize(lat)
    for M in Ms:
        st = exact.filled_state(spectrum, M)
        rho = exact.density_exact(spectrum, st)
        yield (lat, M, st.fermi_energy, rho,
               wkb.density_profile(cont, st.fermi_energy, lat.site_positions))


def run_density(cfg: RunConfig) -> List[Path]:
    out = []
    for lat, M, eps_F, rho, prof in _filled_densities(cfg):
        regions = [[r.lower, r.upper, r.kind] for r in prof.regions]
        out.append(_write_table(
            cfg, f"density_M{M}",
            {"M": M, "fermi_energy": eps_F, "regions": json.dumps(regions)},
            {"site": list(range(lat.num_sites)),
             "x": list(lat.site_positions),
             "density_exact": list(rho),
             "density_wkb": list(prof.density)},
        ))
    return out


def run_filling_curve(cfg: RunConfig, stem: str = "filling_curve") -> List[Path]:
    lat, cont = _continuum_pair(cfg)
    params = cfg.params
    if "energies" in params:
        es = np.asarray(_list_of(params, "energies", _is_real, "finite numbers"),
                        dtype=float)
    else:
        grid = params.get("energy_grid", {})
        bad = ConfigError("energy_grid must be {min, max, count} with finite min "
                          f"and max and an integer count >= 1, got {grid!r}")
        if not (isinstance(grid, dict) and set(grid) <= {"min", "max", "count"}):
            raise bad
        lo, hi = profiles.gerschgorin_bounds(lat)
        lo, hi, count = grid.get("min", lo), grid.get("max", hi), grid.get("count", 101)
        if not (_is_real(lo) and _is_real(hi) and _is_int(count) and count >= 1):
            raise bad
        if not math.isfinite(float(hi) - float(lo)):
            raise ConfigError(f"energy_grid max - min must be finite, got min {lo!r} "
                              f"and max {hi!r}")
        es = np.linspace(float(lo), float(hi), count)
    energies = exact.eigenvalues(lat)
    nu_exact = [float(np.sum(energies <= e)) / lat.num_sites for e in es]
    nu_wkb = [wkb.filling_fraction(cont, float(e)) for e in es]
    return [_write_table(cfg, stem, {},
                         {"energy": list(es),
                          "nu_exact": nu_exact,
                          "nu_wkb": nu_wkb})]


def run_wells(cfg: RunConfig) -> List[Path]:
    lat, cont = _continuum_pair(cfg)
    e, _, _ = _energy_and_modes(cfg, lat)
    wd = wkb.wells(cont, e)
    freqs = wkb.well_frequencies(wd) if not wd.is_empty else []
    return [_write_table(
        cfg, "wells", {"energy": e, "count": len(wd.wells)},
        {"well": list(range(len(wd.wells))),
         "lower": [w.lower for w in wd.wells],
         "upper": [w.upper for w in wd.wells],
         "lower_kind": [w.lower_kind for w in wd.wells],
         "upper_kind": [w.upper_kind for w in wd.wells],
         "inv_norm": list(wd.inv_norms),
         "frequency": list(freqs)},
    )]


def run_envelope(cfg: RunConfig, stem: str = "envelope") -> List[Path]:
    lat, cont = _continuum_pair(cfg)
    e, k, spectrum = _energy_and_modes(cfg, lat)
    wd = wkb.wells(cont, e)
    grid = lat.mode_positions  # eigenvector component n sits at (n+1) a
    x, env = wkb.envelope(cont, e, wd, grid)
    cols = {"x": list(x), "envelope_plus": list(env), "envelope_minus": list(-env)}
    if k is not None:
        keep = np.isin(grid, x)
        a = lat.lattice_spacing
        cols["mode_exact"] = list(spectrum.modes[keep, k] / np.sqrt(a))
    return [_write_table(cfg, stem, {"energy": e}, cols)]


def run_frequencies(cfg: RunConfig) -> List[Path]:
    lat, cont = _continuum_pair(cfg)
    band = cfg.params.get("mode_band")
    if band is not None:
        if not (isinstance(band, list) and len(band) == 2
                and all(_is_int(b) for b in band)):
            raise ConfigError(f"mode_band must be two integers [lo, hi), got {band!r}")
        if not 0 <= band[0] <= band[1] <= lat.num_sites:
            raise ConfigError(f"mode_band {band} outside [0, {lat.num_sites}]")
    e, _, spectrum = _energy_and_modes(cfg, lat, need_modes=band is not None)
    wd = wkb.wells(cont, e)
    freqs = wkb.well_frequencies(wd)
    paths = [_write_table(
        cfg, "frequencies", {"energy": e},
        {"well": list(range(len(wd.wells))),
         "frequency": list(freqs)},
    )]
    if band is not None:
        counts = [0] * len(wd.wells)
        deloc = 0
        for k in range(*band):
            idx = exact.localize_eigenfunction(spectrum, k, wd)
            if idx is None:
                deloc += 1
            else:
                counts[idx] += 1
        paths.append(_write_table(
            cfg, "localization_counts",
            {"energy": e, "band": list(band), "delocalized": deloc},
            {"well": list(range(len(wd.wells))), "count_exact": counts},
        ))
    return paths


def run_compare(cfg: RunConfig) -> List[Path]:
    """The density task's arrays per filling, plus a report of their sup,
    mean and bulk-sup errors; the bulk leaves out ceil(N/20) sites at
    either end, so it needs N >= 3."""
    rows, paths = [], []
    for lat, M, _, rho, prof in _filled_densities(cfg):
        N = lat.num_sites
        if N < 3:
            raise ConfigError(f"compare needs N >= 3 for a bulk between its "
                              f"ceil(N/20)-site margins, got N = {N}")
        margin = int(np.ceil(N / 20))
        err = np.abs(rho - prof.density)
        rows.append((M, M / N, float(err.max()), float(err.mean()),
                     float(err[margin:N - margin].max())))
        paths.append(_write_table(
            cfg, f"compare_series_M{M}",
            {"M": M, "bulk_margin_sites": margin},
            {"x": list(lat.site_positions),
             "density_exact": list(rho),
             "density_wkb": list(prof.density)},
        ))
    cols = dict(zip(("M", "filling", "sup_error", "mean_abs_error", "bulk_sup_error"),
                    map(list, zip(*rows))))
    paths.insert(0, _write_table(
        cfg, "compare_report", {"bulk_margin_sites": margin}, cols))
    return paths


# --- reproduction targets ---------------------------------------------------

@dataclass(frozen=True)
class _Job:
    """One task run of a reproduction target, written under the target's name.

    ``stem`` overrides the output name of the envelope and filling-curve
    runners; ``companion`` writes a closed-form table next to the run's output.
    """

    task: str
    profile: dict
    params: dict
    stem: Optional[str] = None
    companion: Optional[Callable[[RunConfig], Path]] = None


def _builtin(family: str, parameters: dict) -> dict:
    return {"family": family, "parameters": parameters, "N": 400}


def _rainbow_closed_filling(cfg: RunConfig) -> Path:
    h = cfg.profile["parameters"]["h"]
    grid = cfg.params["energy_grid"]
    es = np.linspace(grid["min"], grid["max"], grid["count"])
    closed = [analytic.rainbow_filling(h, float(e)) for e in es]
    return _write_table(cfg, f"filling_closed_h{h:g}", {"h": h},
                        {"energy": list(es), "nu_closed": closed})


def _cosine_numax(cfg: RunConfig) -> Path:
    # Maximum filling with a depletion interval: WKB curve vs the exact
    # threshold (largest M/N with min site density below 0.01).
    J0s = np.linspace(0.05, 0.95, 19)
    numax_wkb = [analytic.cosine_numax(float(j)) for j in J0s]
    numax_exact = []
    for j in J0s:
        lat, _ = profiles.make_builtin(profiles.Cosine(float(j)), 400)
        spectrum = exact.diagonalize(lat)
        lo, hi = 0, 400
        while hi - lo > 1:  # density min is decreasing in M
            mid = (lo + hi) // 2
            dens = exact.density_exact(spectrum, exact.filled_state(spectrum, mid))
            if dens.min() < 0.01:
                lo = mid
            else:
                hi = mid
        numax_exact.append(lo / 400)
    return _write_table(cfg, "numax", {"exact_threshold": 0.01},
                        {"J0": list(J0s),
                         "numax_wkb": numax_wkb,
                         "numax_exact": numax_exact})


def _critical_fillings(cfg: RunConfig) -> Path:
    _, cont = profiles.from_config(cfg.profile)
    rows = analytic.asymmetric_cosine_critical_energies()
    nu_wkb = [wkb.filling_fraction(cont, e) for e, _ in rows]
    return _write_table(cfg, "critical_fillings", {},
                        {"e_i": [e for e, _ in rows],
                         "nu_i": [nu for _, nu in rows],
                         "nu_wkb": nu_wkb})


_KRAWTCHOUK = {"q": 0.25}
_ASYMMETRIC_COSINE = {"J0": 0.75, "b": 5.0, "r": 2}

_TARGETS: Dict[str, List[_Job]] = {
    "homogeneous-density": [
        _Job("density", _builtin("homogeneous", {"J": 1.0, "B": 0.0}),
             {"fillings": [0.25, 0.5]})],
    "krawtchouk-density": [
        _Job("density", _builtin("krawtchouk", _KRAWTCHOUK),
             {"fillings": [0.125, 0.5, 0.875]})],
    "krawtchouk-envelopes": [
        _Job("envelope", _builtin("krawtchouk", _KRAWTCHOUK),
             {"mode_index": int(400 * nu)},
             stem=f"envelope_nu{nu}".replace(".", "_"))
        for nu in (0.125, 0.5, 0.875)],
    "rainbow-filling": [
        _Job("filling-curve", _builtin("rainbow", {"h": h}),
             {"energy_grid": {"min": -1.0, "max": 1.0, "count": 81}},
             stem=f"filling_curve_h{h:g}", companion=_rainbow_closed_filling)
        for h in (1.0, 10.0)],
    "rainbow-density": [
        _Job("density", _builtin("rainbow", {"h": 1.0}),
             {"fillings": [0.125, 0.4]})],
    "rainbow-envelopes": [
        _Job("envelope", _builtin("rainbow", {"h": 1.0}), {"mode_index": k},
             stem=f"envelope_mode{k}")
        for k in (50, 160)],
    "cosine-density": [
        _Job("density", _builtin("cosine", {"J0": 0.5}),
             {"fillings": [0.4, 0.6, 0.1, 0.9]})],
    "cosine-filling": [
        _Job("filling-curve", _builtin("cosine", {"J0": 0.5}),
             {"energy_grid": {"min": -3.0, "max": 3.0, "count": 121}},
             companion=_cosine_numax)],
    "asymmetric-cosine-density": [
        _Job("density", _builtin("asymmetric_cosine", _ASYMMETRIC_COSINE),
             {"fillings": [0.21, 0.4725, 0.77]})],
    "asymmetric-cosine-frequencies": [
        _Job("frequencies", _builtin("asymmetric_cosine", _ASYMMETRIC_COSINE),
             {"mode_index": 199, "mode_band": [179, 219]},
             companion=_critical_fillings)],
}


def _run_target(name: str, cfg: RunConfig) -> List[Path]:
    paths: List[Path] = []
    for job in _TARGETS[name]:
        sub = RunConfig(task=job.task, profile=job.profile, params=job.params,
                        out_dir=cfg.out_dir / name, fmt=cfg.fmt,
                        deterministic=cfg.deterministic)
        stem = {} if job.stem is None else {"stem": job.stem}
        paths.extend(RUNNERS[job.task](sub, **stem))
        if job.companion is not None:
            paths.append(job.companion(sub))
    return paths


REPRODUCE_TARGETS: Dict[str, Callable] = {
    name: partial(_run_target, name) for name in _TARGETS
}


def reproduce_catalog() -> List[str]:
    """Names of the desk-scale reproduction targets."""
    return list(REPRODUCE_TARGETS)


def run_reproduce(cfg: RunConfig) -> List[Path]:
    wanted = cfg.params.get("targets", cfg.params.get("figure", "all"))
    if isinstance(wanted, str):
        wanted = [wanted]
    if not (isinstance(wanted, list) and wanted
            and all(isinstance(n, str) for n in wanted)):
        raise ConfigError(f"targets must be a name or a nonempty list of names, "
                          f"got {wanted!r}")
    if wanted == ["all"]:
        names = reproduce_catalog()
    else:
        names = wanted
        unknown = [n for n in names if n not in REPRODUCE_TARGETS]
        if unknown:
            raise ConfigError(f"unknown reproduce target(s): {unknown}")
    return [p for name in names for p in REPRODUCE_TARGETS[name](cfg)]


RUNNERS = {
    "spectrum": run_spectrum,
    "density": run_density,
    "filling-curve": run_filling_curve,
    "wells": run_wells,
    "envelope": run_envelope,
    "frequencies": run_frequencies,
    "compare": run_compare,
    "reproduce": run_reproduce,
}

# Each task's parameters, in groups of alternatives: a config gives at most
# one key of a group, and no key outside the task's groups.
_TASK_PARAMETERS = {
    "spectrum": (),
    "density": (("fillings", "M"),),
    "filling-curve": (("energies", "energy_grid"),),
    "wells": (("energy", "mode_index"),),
    "envelope": (("energy", "mode_index"),),
    "frequencies": (("energy", "mode_index"), ("mode_band",)),
    "compare": (("fillings", "M"),),
    "reproduce": (("targets", "figure"),),
}


def _load_config(task: str, args) -> RunConfig:
    raw = _read_json(Path(args.config), "config")
    groups = _TASK_PARAMETERS[task]
    _keys(raw, f"{task} config", () if task == "reproduce" else ("profile",),
          ("task", *(key for group in groups for key in group)))
    for group in groups:
        given = [key for key in group if key in raw]
        if len(given) > 1:
            raise ConfigError(f"{task} config takes one of {given}, not several")
    if "task" in raw and raw["task"] != task:
        raise ConfigError(f"config declares task {raw['task']!r} "
                          f"but {task!r} was requested")
    params = {k: v for k, v in raw.items() if k not in ("profile", "task")}
    return RunConfig(
        task=task,
        profile=raw.get("profile", {}),
        params=params,
        out_dir=Path(args.out),
        fmt=args.format,
        deterministic=args.deterministic,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chain",
        description="Exact and WKB computations on free-fermion chains.",
    )
    parser.add_argument("task", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="chain-out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so reruns byte-reproduce outputs")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.task, args)
        written = RUNNERS[cfg.task](cfg)
    except (ConfigError, profiles.ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MemoryError, OverflowError) as exc:
        # A size or value past memory or the float range, such as N = 10**13
        # sites or a filling of 1e308.
        print(f"config error: input too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericsError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for p in written:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
