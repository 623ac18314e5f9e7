import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncgauge
from ncgauge.linalg import _diagonal_blocks, adjoint, commutator, op_norm
from ncgauge.spectral import c_d_algebra
from ncgauge.staralg import FiniteStarAlgebra, generating_set


def _cap_address_space():
    cap = 4 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` spies on owner.name and returns its calls' arguments, a list.

    A function spied on in the module that defines it is also replaced in
    every ncgauge module that imported it by name; spied on in a module that
    imported it (as ``staralg.pair_products``), only that module's calls count.
    """
    def count(owner, name):
        real, calls = getattr(owner, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        if getattr(real, "__module__", None) == getattr(owner, "__name__", None):
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("ncgauge")
                        and vars(module).get(name) is real):
                    monkeypatch.setattr(module, name, spy)
        return calls

    return count


@pytest.fixture
def run_capped():
    """``run_capped(*args, timeout=120)`` runs ``python *args`` under a 4 GiB address-space cap.

    The args are those of ``-m ncgauge.cli ...`` or ``-c <code>``; the child
    imports this checkout's package and the finished process is returned,
    its output captured as text.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(ncgauge.__file__).parents[1]))

    def run(*args, timeout=120):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                              preexec_fn=_cap_address_space, timeout=timeout)

    return run


def c_d_certificate(triple) -> float:
    """The one-pass certificate that C_D is the *-algebra its letters generate.

    The oracle of the closure kernel's construction argument, which
    ``c_d_algebra`` relies on without measuring: the worst of the relative
    distances of the letters L = pi(g) ∪ [D, pi(g)] and of the unit from C_D,
    and of the product- and adjoint-closure residuals of C_D verified as a
    :class:`FiniteStarAlgebra` on its product table.  Raises ``NotClosed``
    when C_D is not a *-algebra at that check's threshold.
    """
    cd, _ = c_d_algebra(triple)
    eye = np.eye(triple.hilbert_dim, dtype=complex)
    gens = triple.pi(generating_set(triple.algebra))
    spanning = np.concatenate([gens, commutator(triple.dirac, gens), eye[None]])
    missing = np.max(cd.residual(spanning)
                     / np.maximum(1.0, np.linalg.norm(spanning, axis=(1, 2))))
    return max(float(missing), *FiniteStarAlgebra(cd.basis, eye).closure_residuals)


# -- the kernels that linalg's check kernels replaced, kept verbatim as their oracles --

def conjugate_oracle(j, m):
    """``AntiLinearOp.conjugate`` as two dense products: J m J^-1 = K conj(m) K^adj."""
    return j.kernel @ np.conj(np.asarray(m, dtype=complex)) @ adjoint(j.kernel)


_SCREEN_SLACK = 1.0 + 1e-10


def max_op_norm_oracle(blocks):
    """``max_op_norm`` with the Frobenius screen alone: one SVD per matrix it cannot prune."""
    best, where = -1.0, None
    for b, stack in enumerate(blocks):
        stack = np.asarray(stack)
        fro = np.linalg.norm(stack, axis=(-2, -1))
        for i in np.argsort(-fro, kind="stable"):
            if fro[i] * _SCREEN_SLACK <= best:
                break
            value = op_norm(stack[i])
            if value > best:
                best, where = value, (b, int(i))
    return max(best, 0.0), where


def commutator_map_norm_oracle(p, stack):
    """``commutator_map_norm`` read from a full SVD of the packed commutator rows."""
    ps, stack = np.reshape(p, (-1,) + np.shape(p)[-2:]), np.asarray(stack)
    rows = np.concatenate([commutator(ps[:, None, s, s], stack[None, :, s, s])
                           .reshape(len(ps), len(stack), (s.stop - s.start) ** 2)
                           for s in _diagonal_blocks(ps, stack)], axis=-1)
    norms = (np.linalg.svd(rows, compute_uv=False)[..., 0] if rows.size
             else np.zeros(len(ps)))
    return float(norms[0]) if np.ndim(p) == 2 else norms


def orthonormal_rows_oracle(stack, rtol=1e-10, floor=0.0):
    """``_orthonormal_rows`` with the SVD of the stack as given, wide or tall."""
    stack = np.atleast_2d(np.asarray(stack, dtype=float if np.isrealobj(stack) else complex))
    if stack.size == 0 or (floor > 0 and np.linalg.norm(stack) <= floor):
        return np.zeros((0, stack.shape[-1]), dtype=stack.dtype)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    cut = max(rtol * s[0], floor)
    rank = int(np.sum(s > cut))
    return vh[:rank]
