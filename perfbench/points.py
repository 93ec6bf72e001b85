"""Executors for one benchmark point: each is one call into the public API.

Names are looked up as module attributes at call time, so the tracer's
patches of ``sscasimir.<module>.<name>`` see every call.
"""

from __future__ import annotations

from sscasimir import gaussian, quadrature


def energy(fn, d, lam, b, T, t, K, L, higher):
    """Build the kernel and shell from plain numbers and evaluate one energy."""
    params = gaussian.LGParams(t=t, K=K, L=L, higher=tuple(higher))
    shell = gaussian.ShellSpec(dim=d, cutoff=lam, shell_factor=b, temperature=T)
    return getattr(gaussian, fn)(params, shell)


def integrate(d, lam, b, t, K, L, higher, max_evals):
    """Integrate a shell integrand directly under an explicit evaluation budget."""
    params = gaussian.LGParams(t=t, K=K, L=L, higher=tuple(higher))
    return quadrature.integrate(
        lambda q: q ** (d - 1) / gaussian.kernel(params, q),
        lam / b, lam, rel_tol=1e-10, max_evals=max_evals,
    )


def cli(*argv):
    """One in-process command; returns its exit code."""
    from sscasimir import cli as cli_module

    return cli_module.main(list(argv))


EXECUTORS = {"energy": energy, "integrate": integrate, "cli": cli}
