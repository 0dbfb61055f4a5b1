"""Batch command-line front end.

Every command runs a named check or scan against a registered model or
a seeded instance family, prints a fixed-width summary table, and can
write the versioned JSON report with --out.  Configuration comes from
flags, optionally layered over a plain key=value file (flags win).

Each option is declared once, in ``OPTIONS``: its type and its valid
range or words.  Each command is declared once, in ``COMMANDS``: its
help line and the options its body reads, with their defaults.  The
argparse subcommands, the config-file reader and the range check are
built from these two tables, so a command takes only its own options
(and ``--out`` and ``--config``): an unread flag is a usage error and an
unread config key a ConfigError.

Exit codes: 0 all checks passed, 1 a check failed or aborted, 2 bad
configuration (a flag or key the command does not take, or a value out
of its option's range), 3 unexpected internal error.
"""

import argparse
import sys
from typing import Callable, NamedTuple

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

# The largest lambda_max: e^lambda of h_lambda overflows above ln(max float).
LAMBDA_MAX = float(np.log(np.finfo(float).max))


class Option(NamedTuple):
    """One option: the type of its value and its valid range, as the
    error states it (``rule``) and as a test (``valid``); its argparse
    ``choices`` when it takes one of a fixed set of words; its flag when
    that is not --key with '-' for '_'."""

    type: type = str
    rule: str = None
    valid: Callable = None
    words: tuple = None
    flag: str = None
    help: str = None


def _at_least(low, flag=None):
    return Option(int, "at least %d" % low, lambda v: v >= low, flag=flag)


def _one_of(*words):
    return Option(str, "one of " + ", ".join(words), words.__contains__, words)


_FINITE_POSITIVE = Option(float, "finite and positive", lambda v: 0 < v < np.inf)

# Every option, by its config key.  A config file bypasses argparse, so
# every rule here is checked on the layered configuration.
OPTIONS = {
    "seed": _at_least(0),
    "rank": _at_least(0),
    "dim": _at_least(1),
    "dimv": _at_least(1, "--dimV"),
    "dimw": _at_least(1, "--dimW"),
    "samples": _at_least(1),
    "instances": _at_least(1),
    "lambda_max": Option(float, "between 0 and %.2f" % LAMBDA_MAX, lambda v: 0 <= v <= LAMBDA_MAX),
    "region": _FINITE_POSITIVE,
    "tol": _FINITE_POSITIVE,
    "derivatives": _one_of("analytic", "fd"),
    "demo": _one_of("degenerate", "random"),
    "model": Option(help="model id, e.g. fs:1, gr:2:4, hirz:1"),
    "criteria": Option(help="comma-separated criterion numbers, e.g. 1,3,11"),
    "out": Option(help="write the JSON report here"),
}


def _read_config_file(path, command):
    """The values of a key=value file; ConfigError for a key that is not
    an option of ``command``."""
    keys, values = _options(command), {}
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
        if key not in keys:
            raise ConfigError("%s takes no config key %r (line %d)" % (command, key, lineno))
        try:
            values[key] = OPTIONS[key].type(value.strip())
        except ValueError:
            raise ConfigError("bad value for %r on line %d: %r" % (key, lineno, value))
    return values


def _options(command):
    """The options of ``command`` with their defaults: those its body
    reads, and ``out``, which :func:`main` reads."""
    return dict(COMMANDS[command].options, out=None)


def _effective_config(args):
    """Layer the command's defaults, then the config file, then explicit
    flags; drop the options left without a value and check the rest."""
    cfg = _options(args.command)
    if args.config:
        cfg.update(_read_config_file(args.config, args.command))
    cfg.update((key, value) for key, value in vars(args).items() if key in cfg and value is not None)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    for key, value in cfg.items():
        option = OPTIONS[key]
        if option.valid is not None and not option.valid(value):
            raise ConfigError("%s must be %s, got %r" % (key, option.rule, value))
    if cfg.get("rank", 0) > cfg.get("dim", np.inf):
        raise ConfigError("rank cannot exceed dim")
    return cfg


def _metric_entry(cfg):
    entry = resolve_model(cfg["model"])
    if entry.kind != "metric":
        raise ConfigError("command needs a metric model, got %r" % cfg["model"])
    return entry


def _field_for(entry, cfg):
    field = entry.field
    if cfg["derivatives"] == "fd":
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
        if "seed" in cfg:
            raise ConfigError("the degenerate demo reads no seed")
        bV = HermitianForm(np.diag([1.0] * (dv - 1) + [0.0]))
        bW = HermitianForm(np.eye(dw))
        f = LinearMap(np.eye(dw, dv))
    else:  # random, recording the seed it falls back to
        rng = np.random.default_rng(report.config.setdefault("seed", cfg.get("seed", 0)))
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


class Command(NamedTuple):
    """One command: its body, its help line, and the options its body
    reads with their defaults (None where the body falls back on its own)."""

    run: Callable
    help: str
    options: dict


COMMANDS = {
    "purge": Command(cmd_purge, "quotient a seeded degenerate form by its kernel",
                     dict(dim=3, rank=2, seed=0)),
    "adjoint": Command(cmd_adjoint, "adjoint of a map between formed spaces",
                       dict(dimv=2, dimw=1, demo="degenerate", seed=None, tol=1e-9)),
    "curvature": Command(cmd_curvature, "curvature sanity checks at sampled points",
                         dict(model="fs:1", samples=5, seed=0, derivatives="analytic", region=None, tol=None)),
    "hsc": Command(cmd_hsc, "extremal holomorphic sectional curvature scan",
                   dict(model="fs:1", samples=100, seed=0, tol=1e-5, derivatives="analytic", region=None)),
    "grassmannian": Command(cmd_grassmannian, "two-route equality and Einstein checks",
                            dict(model="gr:2:4", samples=20, seed=0, tol=1e-8, region=None)),
    "codazzi-check": Command(cmd_codazzi_check, "curvature-correction oracle suite",
                             dict(instances=10, seed=0, tol=1e-4)),
    "demailly-check": Command(cmd_demailly_check, "derivative identity table suite",
                              dict(instances=10, seed=0, tol=1e-5)),
    "sum-check": Command(cmd_sum_check, "sum-of-forms curvature oracle suite",
                         dict(instances=10, seed=0, tol=1e-4)),
    "fibration-scan": Command(cmd_fibration_scan, "positivity threshold scan",
                              dict(model="hirz:1", samples=200, seed=0, lambda_max=12.0, region=None)),
    "acceptance": Command(cmd_acceptance, "run the bundled acceptance criteria", dict(criteria=None)),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hermitia",
        description="Curvature checks and scans for degenerate Hermitian metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for key in _options(command):
            option = OPTIONS[key]
            p.add_argument(option.flag or "--" + key.replace("_", "-"), dest=key, type=option.type,
                           choices=option.words, help=option.help)
        p.add_argument("--config", help="key=value file; flags override it")
        p.set_defaults(parser=p)
    return parser


def main(argv=None):
    args, unread = _build_parser().parse_known_args(argv)
    if unread:  # reported with the usage of the command, not of hermitia
        args.parser.error("unrecognized arguments: %s" % " ".join(unread))
    try:
        cfg = _effective_config(args)
        report = Report(args.command, cfg)
        COMMANDS[args.command].run(cfg, report)
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
