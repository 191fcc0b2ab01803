"""A textbook Strang loop on real (a, b): the one reference the tests compare
the kernel with.

A step is a half kick, the exact rotation over dt, and a half kick.  A kick
holds a frozen, feels the source projection of that a,
``base = lh - <f(u), w_j>``, and takes one explicit midpoint:
``bm = b + (dt/4)(base - k(E_alpha(a, b)) b)``, then
``b += (dt/2)(base - k(E_alpha(a, bm)) bm)``.  The rotation is
``a' = cos a + (sin/omega) b``, ``b' = -omega sin a + cos b`` with
``omega = sqrt(sigma + kappa mu)``.  D is the trapezoid sum of
``k(E_alpha) |b|^2`` over the states each step leaves.

The loop is built from public names only: the model's sigma, mu and kappa,
the law's scalar evaluator, ``project_source`` and the config.  A wrong
table in the kernel therefore cannot pass by being shared with its
reference.
"""

from types import SimpleNamespace

import numpy as np

from edbeam import project_source


def strang(model, source, damping, lh, cfg, a, b, t0=0.0, drive=None):
    """The samples of a run from (a, b) at t0: every ``cfg.sample_stride``
    steps plus the last, as ``times``, ``amat``, ``bmat`` and ``dvec``.

    The state is one run (N,) or a stack (B, N) with one ``lh`` row per
    run.  Row r feels the source projection of row ``drive[r]``, its own
    when ``drive`` is None; k is each row's own k(E_alpha).  A stack
    records D as one (B, 1) column per sample, as the kernel does.
    """
    dt = cfg.dt
    om = np.sqrt(model.sigma + model.kappa * model.mu)
    cos, sin = np.cos(om * dt), np.sin(om * dt)
    w = model.mu ** (2.0 * cfg.alpha)
    kf = damping.scalar_k()
    # a run's scalars: Python floats for one run, which keeps the 10^4-step
    # cases fast; (B, 1) columns for a stack, k mapped over its rows
    if np.ndim(a) == 1:
        k = kf

        def dot(x, y):
            return float(x.dot(y))

        def project(a):
            return project_source(model, source, a)

    else:

        def k(e):
            return np.array([kf(x) for x in e[:, 0].tolist()])[:, None]

        def dot(x, y):
            return np.vecdot(x, y)[:, None]

        rows = range(len(a)) if drive is None else drive

        def project(a):
            return np.array([project_source(model, source, a[r]) for r in rows])

    def kick(base, sa, b, kv):
        # base and sa = sum_j mu_j^(2 alpha) a_j^2 of the frozen a;
        # kv = k(sa + |b|^2)
        bm = b + 0.25 * dt * (base - kv * b)
        return b + 0.5 * dt * (base - k(sa + dot(bm, bm)) * bm)

    # base and sa are functions of a alone, and a moves only in the rotation:
    # they are evaluated once per a, k(E_alpha) once per state, and read by
    # every use, the kicks and the integrand k(E_alpha) |b|^2 of D
    base = lh - project(a)
    sa = dot(a * a, w)
    bb = dot(b, b)
    kv = k(sa + bb)
    ell_prev = kv * bb
    d = np.zeros_like(ell_prev)
    samples = []
    for n in range(cfg.n_steps):
        if n % cfg.sample_stride == 0:
            samples.append((t0 + n * dt, a, b, d))
        b = kick(base, sa, b, kv)
        a, b = cos * a + (sin / om) * b, -(om * sin) * a + cos * b
        base = lh - project(a)
        sa = dot(a * a, w)
        b = kick(base, sa, b, k(sa + dot(b, b)))
        bb = dot(b, b)
        kv = k(sa + bb)
        ell_next = kv * bb
        d = d + 0.5 * dt * (ell_prev + ell_next)
        ell_prev = ell_next
    samples.append((t0 + cfg.n_steps * dt, a, b, d))

    times, amat, bmat, dvec = (np.array(x) for x in zip(*samples))
    return SimpleNamespace(times=times, amat=amat, bmat=bmat, dvec=dvec)
