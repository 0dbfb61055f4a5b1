"""Run reports: versioned JSON plus a plain table for standard output.

A Report collects named check records; each record carries a value, an
optional residual with its tolerance, and the derived pass flag.  The
one gate rule of every check: a record passes iff its residual is at
most its tolerance, so a NaN residual fails; a record with no residual
passes unless it states ``passed=False``.  A worst-over-the-suite
residual is a :func:`worst_of`, which keeps a NaN for the gate to fail.
Two runs with the same configuration produce identical reports except
for the time fields.
"""

import json
import time

import numpy as np

SCHEMA = "hermitia-report/1"


def encode_complex(value):
    """One complex number as a [re, im] pair of floats."""
    value = complex(value)
    return [float(value.real), float(value.imag)]


def encode_matrix(matrix):
    """Row-major nested lists of [re, im] pairs."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return [[encode_complex(v) for v in row] for row in matrix]


def fmt_complex(value):
    value = complex(value)
    if abs(value.imag) < 1e-12 * (1.0 + abs(value.real)):
        return "%g" % value.real
    return "%g%+gi" % (value.real, value.imag)


def fmt_matrix(matrix):
    """Compact one-line rendering: rows split by ';', entries by ','."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    rows = [", ".join(fmt_complex(v) for v in row) for row in matrix]
    return "(" + "; ".join(rows) + ")"


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return encode_matrix(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def worst_of(values):
    """The largest of ``values`` (0.0 for none) as a float.  A NaN among
    them is the result, where Python's ``max`` drops a NaN that comes
    after a number.  Every value is read.  The values come in short
    lists, which a loop reduces faster than one ``np.max`` call."""
    worst = 0.0
    for v in values:
        if worst == worst and not v < worst:  # a value not below, or a NaN, until a NaN
            worst = v
    return float(worst)


class Report:
    def __init__(self, command, config):
        self.command = command
        self.config = _plain(dict(config))
        self.records = []
        self._t0 = time.perf_counter()

    def add(self, name, value=None, residual=None, tolerance=None, passed=None, **extra):
        """Append one check record.  Unless ``passed`` is stated, it
        passes iff ``residual <= tolerance``, so a NaN residual fails."""
        if passed is None:
            passed = True if residual is None else bool(residual <= tolerance)
        record = {"name": name, "passed": bool(passed)}
        if value is not None:
            record["value"] = _plain(value)
        if residual is not None:
            record["residual"] = float(residual)
        if tolerance is not None:
            record["tolerance"] = float(tolerance)
        for key, val in extra.items():
            record[key] = _plain(val)
        self.records.append(record)
        return record

    @property
    def passed(self):
        return all(record["passed"] for record in self.records)

    def as_dict(self):
        return {
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "records": self.records,
            "passed": self.passed,
            "wall_time_s": round(time.perf_counter() - self._t0, 3),
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def table(self):
        """Fixed-width summary, one line per record."""
        width = max([len(r["name"]) for r in self.records] + [4])
        lines = ["command: %s" % self.command]
        for key in sorted(self.config):
            if self.config[key] is not None:
                lines.append("  %s = %s" % (key, self.config[key]))
        header = "%-*s  %-24s %-12s %-12s %s" % (
            width, "name", "value", "residual", "tolerance", "status")
        lines.append(header)
        lines.append("-" * len(header))
        for record in self.records:
            value = record.get("value", "")
            if isinstance(value, float):
                value = "%.8g" % value
            elif not isinstance(value, str):
                value = json.dumps(value)
            if len(value) > 24:
                value = value[:21] + "..."
            residual = record.get("residual")
            tolerance = record.get("tolerance")
            lines.append("%-*s  %-24s %-12s %-12s %s" % (
                width,
                record["name"],
                value,
                "" if residual is None else "%.3e" % residual,
                "" if tolerance is None else "%.1e" % tolerance,
                "pass" if record["passed"] else "FAIL",
            ))
        lines.append("%s (wall time %.2f s)" % (
            "all checks passed" if self.passed else "SOME CHECKS FAILED",
            time.perf_counter() - self._t0,
        ))
        return "\n".join(lines)
