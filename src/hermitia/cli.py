"""Batch command-line front end.

Every command runs a named check or scan against a registered model or
a seeded instance family, prints a fixed-width summary table, and can
write the versioned JSON report with --out.  Configuration comes from
flags, optionally layered over a plain key=value file (flags win).

Exit codes: 0 all checks passed, 1 a check failed or aborted, 2 bad
configuration (including a value out of range, see _check_ranges), 3
unexpected internal error.
"""

import argparse
import sys

import numpy as np

from . import acceptance
from .charts import _torsion, hsc_of_tensor, metric_curvature, sample_box
from .errors import ConfigError, HermitiaError
from .forms import HermitianForm, LinearMap, adjoint, adjoint_freedom_dims, kernel, purge
from .instances import adjointable_map, hermitian_form
from .models import einstein_residual, hsc_extremes, pluecker_gap, resolve_model
from .fibration import find_lambda0
from .report import Report, encode_matrix, fmt_matrix, worst_of

# Largest norm of the purge quotient map on the kernel of the form.
PURGE_ANNIHILATION_TOL = 1e-9
# Default pair-symmetry and torsion tolerances of `curvature`, with
# analytic and with finite-difference derivatives; the torsion check
# allows at least TORSION_FLOOR.
CURVATURE_TOL = 1e-8
CURVATURE_FD_TOL = 1e-4
TORSION_FLOOR = 1e-6

# Per-command defaults, applied under the config file and the flags.
_DEFAULTS = {
    "purge": {"dim": 3, "rank": 2, "seed": 0},
    "adjoint": {"dimv": 2, "dimw": 1, "demo": "degenerate", "seed": 0, "tol": 1e-9},
    "curvature": {"model": "fs:1", "samples": 5, "seed": 0, "derivatives": "analytic"},
    "hsc": {"model": "fs:1", "samples": 100, "seed": 0, "tol": 1e-5,
            "derivatives": "analytic"},
    "grassmannian": {"model": "gr:2:4", "samples": 20, "seed": 0, "tol": 1e-8},
    "codazzi-check": {"instances": 10, "seed": 0, "tol": 1e-4},
    "demailly-check": {"instances": 10, "seed": 0, "tol": 1e-5},
    "sum-check": {"instances": 10, "seed": 0, "tol": 1e-4},
    "fibration-scan": {"model": "hirz:1", "samples": 200, "seed": 0, "lambda_max": 12.0},
    "acceptance": {},
}

_COERCE = {
    "seed": int,
    "samples": int,
    "instances": int,
    "dim": int,
    "rank": int,
    "dimv": int,
    "dimw": int,
    "region": float,
    "tol": float,
    "lambda_max": float,
    "model": str,
    "demo": str,
    "derivatives": str,
    "criteria": str,
    "out": str,
}


def _read_config_file(path):
    values = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("config line %d is not key=value: %r" % (lineno, line))
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _COERCE:
            raise ConfigError("unknown config key %r on line %d" % (key, lineno))
        try:
            values[key] = _COERCE[key](value.strip())
        except ValueError:
            raise ConfigError("bad value for %r on line %d: %r" % (key, lineno, value))
    return values


def _effective_config(args):
    """Layer defaults, then the config file, then explicit flags."""
    cfg = dict(_DEFAULTS[args.command])
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    _check_ranges(cfg)
    return cfg


# The largest lambda_max: e^lambda of h_lambda overflows above ln(max float).
LAMBDA_MAX = float(np.log(np.finfo(float).max))
# The values of the keys that take one of a fixed set of words.
_CHOICES = {"derivatives": ("analytic", "fd"), "demo": ("degenerate", "random")}


def _check_ranges(cfg):
    """Raise ConfigError for a value out of its range: seed >= 0; dim,
    dimv, dimw, samples and instances >= 1; 0 <= rank <= dim; 0 <=
    lambda_max <= LAMBDA_MAX; region and tol finite and > 0; derivatives
    and demo one of their ``_CHOICES``.  A config file bypasses argparse,
    so every range is checked here."""
    lowest = dict(seed=0, rank=0, lambda_max=0.0, dim=1, dimv=1, dimw=1, samples=1, instances=1)
    for key, low in lowest.items():
        if key in cfg and not cfg[key] >= low:
            raise ConfigError("%s must be at least %s, got %r" % (key, low, cfg[key]))
    if "rank" in cfg and "dim" in cfg and cfg["rank"] > cfg["dim"]:
        raise ConfigError("rank cannot exceed dim")
    if "lambda_max" in cfg and not cfg["lambda_max"] <= LAMBDA_MAX:
        raise ConfigError("lambda_max must be at most %.2f, got %r" % (LAMBDA_MAX, cfg["lambda_max"]))
    for key in ("region", "tol"):
        if key in cfg and not np.isfinite(cfg[key]):
            raise ConfigError("%s must be finite, got %r" % (key, cfg[key]))
    for key in ("region", "tol"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError("%s must be positive, got %r" % (key, cfg[key]))
    for key, choices in _CHOICES.items():
        if key in cfg and cfg[key] not in choices:
            raise ConfigError("%s must be one of %s, got %r" % (key, ", ".join(choices), cfg[key]))


def _metric_entry(cfg):
    entry = resolve_model(cfg["model"])
    if entry.kind != "metric":
        raise ConfigError("command needs a metric model, got %r" % cfg["model"])
    return entry


def _field_for(entry, cfg):
    field = entry.field
    if cfg.get("derivatives", "analytic") == "fd":
        field = field.finite_difference_copy()
    return field


def cmd_purge(cfg, report):
    rng = np.random.default_rng(cfg["seed"])
    b = hermitian_form(rng, cfg["dim"], rank=cfg["rank"])
    result = purge(b)
    report.add("input_rank", value=b.rank, passed=b.rank == cfg["rank"])
    report.add("purged_dim", value=result.purged_form.dim,
               passed=result.purged_form.dim == cfg["rank"])
    kb = kernel(b).basis
    resid = float(np.linalg.norm(result.quotient_map.matrix @ kb)) if kb.size else 0.0
    report.add("kernel_annihilation", residual=resid, tolerance=PURGE_ANNIHILATION_TOL)
    report.add("purged_gram", value=fmt_matrix(result.purged_form.gram),
               matrix=encode_matrix(result.purged_form.gram))


def cmd_adjoint(cfg, report):
    dv, dw = cfg["dimv"], cfg["dimw"]
    if cfg["demo"] == "degenerate":
        if dv < 2:
            raise ConfigError("the degenerate demo needs dimV >= 2")
        bV = HermitianForm(np.diag([1.0] * (dv - 1) + [0.0]))
        bW = HermitianForm(np.eye(dw))
        f = LinearMap(np.eye(dw, dv))
    else:  # random
        rng = np.random.default_rng(cfg["seed"])
        bV = hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = adjointable_map(rng, bV, bW)

    fd = adjoint(f, bV, bW)
    resid = np.max(np.abs(bV.gram @ fd.matrix - f.matrix.conj().T @ bW.gram))
    report.add("defining_identity", residual=float(resid) / (1.0 + np.linalg.norm(f.matrix)),
               tolerance=cfg["tol"])
    torsor_dim, constraint_codim = adjoint_freedom_dims(f, bV, bW)
    report.add("torsor_dimension", value=torsor_dim, passed=torsor_dim is not None,
               constraint_codim=constraint_codim)
    report.add("f_dagger", value=fmt_matrix(fd.matrix), matrix=encode_matrix(fd.matrix))


def cmd_curvature(cfg, report):
    entry = _metric_entry(cfg)
    field = _field_for(entry, cfg)
    region = cfg.get("region", entry.default_region)
    tol = cfg.get("tol", CURVATURE_TOL if cfg["derivatives"] == "analytic" else CURVATURE_FD_TOL)
    for idx in range(cfg["samples"]):
        rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], idx]))
        z = sample_box(rng, field.m, region)
        curv = metric_curvature(field, z)  # the one solve at z
        report.add("point_%02d_pair_symmetry" % idx,
                   residual=float(curv.pair_symmetry_residual()), tolerance=tol)
        report.add("point_%02d_torsion" % idx,
                   residual=float(_torsion(curv)), tolerance=max(tol, TORSION_FLOOR))
        v = rng.standard_normal(field.shape) + 1j * rng.standard_normal(field.shape)
        report.add("point_%02d_H" % idx, value=hsc_of_tensor(curv.tensor, curv.form.gram, v))


def cmd_hsc(cfg, report):
    entry = _metric_entry(cfg)
    field = _field_for(entry, cfg)
    region = cfg.get("region", entry.default_region)
    scan = hsc_extremes(field, region, samples=cfg["samples"], seed=cfg["seed"])
    if entry.hsc_lower is not None:
        report.add("min_H", value=scan.min_H,
                   residual=abs(scan.min_H - entry.hsc_lower), tolerance=cfg["tol"],
                   declared=entry.hsc_lower)
        report.add("max_H", value=scan.max_H,
                   residual=abs(scan.max_H - entry.hsc_upper), tolerance=cfg["tol"],
                   declared=entry.hsc_upper)
    else:
        report.add("min_H", value=scan.min_H)
        report.add("max_H", value=scan.max_H)
    report.add("scan", value={"samples": scan.samples, "region": scan.region,
                              "seed": scan.seed})


def cmd_grassmannian(cfg, report):
    entry = _metric_entry(cfg)
    if entry.grassmann is None:
        raise ConfigError("command needs a gr:k:n model, got %r" % cfg["model"])
    model = entry.grassmann
    rng = np.random.default_rng(cfg["seed"])
    region = cfg.get("region", entry.default_region)
    points = [sample_box(rng, entry.field.m, region) for _ in range(cfg["samples"])]
    worst = pluecker_gap(entry.field, model.k, model.n, points)
    report.add("route_agreement", residual=worst, tolerance=cfg["tol"])

    resid = einstein_residual(entry.field, entry.einstein_constant, seed=cfg["seed"])
    report.add("einstein_constant", value=entry.einstein_constant,
               residual=float(resid), tolerance=acceptance.EINSTEIN_TOL)

    scan = hsc_extremes(entry.field, region, samples=400, optimizer_steps=60, seed=cfg["seed"])
    escape = acceptance.WINDOW_ESCAPE_TOL
    inside = entry.hsc_lower - escape <= scan.min_H and scan.max_H <= entry.hsc_upper + escape
    report.add("curvature_window", value=[scan.min_H, scan.max_H], passed=bool(inside),
               declared=[entry.hsc_lower, entry.hsc_upper])


def cmd_codazzi_check(cfg, report):
    for seed in range(cfg["seed"], cfg["seed"] + cfg["instances"]):
        resid = acceptance.codazzi_instance_residual(seed)
        report.add("instance_%03d" % seed, residual=float(resid), tolerance=cfg["tol"])


def cmd_demailly_check(cfg, report):
    for seed in range(cfg["seed"], cfg["seed"] + cfg["instances"]):
        table = acceptance.identity_table_instance(seed)
        report.add("instance_%03d" % seed, residual=worst_of(table.values()), tolerance=cfg["tol"],
                   lines={k: float(v) for k, v in table.items()})


def cmd_sum_check(cfg, report):
    for seed in range(cfg["seed"], cfg["seed"] + cfg["instances"]):
        resid, kind = acceptance.sum_instance_residual(seed)
        report.add("instance_%03d" % seed, residual=float(resid), tolerance=cfg["tol"],
                   kind=kind)


def cmd_fibration_scan(cfg, report):
    entry = resolve_model(cfg["model"])
    if entry.kind != "fibration":
        raise ConfigError("command needs a fibration model, got %r" % cfg["model"])
    schedule = tuple(range(int(cfg["lambda_max"]) + 1))
    scan = find_lambda0(entry.fibration, region=cfg.get("region"),
                        sphere_samples=cfg["samples"], lambda_schedule=schedule,
                        seed=cfg["seed"])
    report.add("lambda0", value=scan.lambda0, passed=scan.found)
    for record in scan.records:
        report.add("lambda_%g_min_H" % record["lambda"],
                   value=record["min_H"],
                   positive_definite=record["positive_definite"])


def cmd_acceptance(cfg, report):
    numbers = None
    if cfg.get("criteria"):
        try:
            numbers = [int(tok) for tok in str(cfg["criteria"]).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError("bad --criteria list %r" % cfg["criteria"])
        unknown = [n for n in numbers if not 1 <= n <= len(acceptance.CRITERIA)]
        if unknown:
            raise ConfigError("no such criterion: %s" % unknown)
    for result in acceptance.run_all(numbers=numbers):
        report.add("criterion_%02d_%s" % (result.number, result.name.replace(" ", "_")),
                   passed=result.passed, elapsed_s=round(result.elapsed, 3),
                   failures=result.failures, details=result.details)


_COMMANDS = {
    "purge": cmd_purge,
    "adjoint": cmd_adjoint,
    "curvature": cmd_curvature,
    "hsc": cmd_hsc,
    "grassmannian": cmd_grassmannian,
    "codazzi-check": cmd_codazzi_check,
    "demailly-check": cmd_demailly_check,
    "sum-check": cmd_sum_check,
    "fibration-scan": cmd_fibration_scan,
    "acceptance": cmd_acceptance,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hermitia",
        description="Curvature checks and scans for degenerate Hermitian metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, samples=False, instances=False, scan=False):
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--config", help="key=value file; flags override it")
        if model:
            p.add_argument("--model", help="model id, e.g. fs:1, gr:2:4, hirz:1")
            p.add_argument("--region", type=float)
        if samples:
            p.add_argument("--samples", type=int)
        if instances:
            p.add_argument("--instances", type=int)
        if scan:
            p.add_argument("--lambda-max", type=float, dest="lambda_max")

    p = sub.add_parser("purge", help="quotient a seeded degenerate form by its kernel")
    p.add_argument("--dim", type=int)
    p.add_argument("--rank", type=int)
    common(p)

    p = sub.add_parser("adjoint", help="adjoint of a map between formed spaces")
    p.add_argument("--dimV", type=int, dest="dimv")
    p.add_argument("--dimW", type=int, dest="dimw")
    p.add_argument("--demo", choices=_CHOICES["demo"])
    common(p)

    p = sub.add_parser("curvature", help="curvature sanity checks at sampled points")
    p.add_argument("--derivatives", choices=_CHOICES["derivatives"])
    common(p, model=True, samples=True)

    p = sub.add_parser("hsc", help="extremal holomorphic sectional curvature scan")
    p.add_argument("--derivatives", choices=_CHOICES["derivatives"])
    common(p, model=True, samples=True)

    p = sub.add_parser("grassmannian", help="two-route equality and Einstein checks")
    common(p, model=True, samples=True)

    p = sub.add_parser("codazzi-check", help="curvature-correction oracle suite")
    common(p, instances=True)

    p = sub.add_parser("demailly-check", help="derivative identity table suite")
    common(p, instances=True)

    p = sub.add_parser("sum-check", help="sum-of-forms curvature oracle suite")
    common(p, instances=True)

    p = sub.add_parser("fibration-scan", help="positivity threshold scan")
    common(p, model=True, samples=True, scan=True)

    p = sub.add_parser("acceptance", help="run the bundled acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers, e.g. 1,3,11")
    common(p)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        report = Report(args.command, cfg)
        _COMMANDS[args.command](cfg, report)
        print(report.table())
        if cfg.get("out"):
            report.write(cfg["out"])
        return 0 if report.passed else 1
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except HermitiaError as exc:
        print("check aborted: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
