import sys

import pytest


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
