import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ncgauge


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
