"""Per-point oracles of the package's stacked routines, for the tests only.

Each computes one point, or one direction, at a time, the way the
package once did, so a test can hold the stacked route to it bit for bit.
"""

import numpy as np

from hermitia.charts import _as_point, _kernel_perturbation, ring_fd
from hermitia.forms import conj_transpose


def wirtinger_fd(fn, z, a, step, conjugate=False):
    """Central Wirtinger difference of an array-valued ``fn`` along z_a:
    d_a (or dbar_a when ``conjugate``) from four reads at z +- step e_a
    and z +- i step e_a.  It builds its points and combines its reads on
    its own: the per-direction oracle of ``charts.ring_fd``."""
    e = np.zeros(len(z), dtype=complex)
    e[a] = 1.0
    h = step
    fp, fm, fip, fim = (fn(w) for w in (z + h * e, z - h * e, z + 1j * h * e, z - 1j * h * e))
    if conjugate:
        return (fp - fm + 1j * fip - 1j * fim) / (4.0 * h)
    return (fp - fm - 1j * fip + 1j * fim) / (4.0 * h)


def outer_dd(field, z):
    """d_a dbar_b G at one point by ``ring_fd`` over the one-point reads
    of dbar_b G = (d_b G)^H at the 4m outer stencil points: the per-point
    oracle of ``ChartField._dd_ring``."""
    return ring_fd(lambda w: conj_transpose(field.d(w)), z, field.fd_outer_step)


def grassmann_gram(z, k, n):
    """kron(P, Q^T) with P = (I + Z Z*)^-1 and Q = (I + Z* Z)^-1 at one
    point by np.kron: the per-point oracle of the Grassmannian kernel
    ``models._grassmann_gram_stack``."""
    zm = z.reshape(k, n - k)
    p = np.linalg.inv(np.eye(k) + zm @ zm.conj().T)
    q = np.linalg.inv(np.eye(n - k) + zm.conj().T @ zm)
    return np.kron(p, q.T)


def smooth_kernel_perturbation(field, z, seed=0):
    """The gauge check's default kernel-valued perturbation K as a
    function of one point, for gauge tests: the K of
    ``charts._kernel_perturbation`` seeded at z, reading the form of G at
    each point it is called at; the zero function for nondegenerate
    fields."""
    z0 = _as_point(z, field.m)
    k = _kernel_perturbation(field, z0, field.form_at(z0), seed)
    return lambda w: k(w, field.form_at(w))
