"""Call counts of tmh functions through every module that bound them."""

import sys
from collections import Counter


def count_calls(monkeypatch, names) -> Counter:
    """Wrap each of names in every imported tmh module that bound it, so that a
    call through any import site counts; returns the counts the wrappers fill."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, module in list(sys.modules.items()):
        if key == "tmh" or key.startswith("tmh."):
            for name in names:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls
