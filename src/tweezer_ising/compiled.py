"""scipy's compiled modules, loaded alone: importing ``scipy.linalg`` or
``scipy.optimize`` to reach them would load a few hundred scipy modules,
which take longer than the rest of a design's set-up."""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def scipy_extension(name: str):
    """The compiled scipy module ``name``, such as ``"scipy.linalg._flapack"``.

    Its file is loaded alone and registered in ``sys.modules`` under
    ``name``, so a later scipy import finds this very module and every
    routine keeps its bits (the parent package, imported later, does not
    get it as an attribute; ``import`` and ``from`` statements find it).
    Where the file is not found, it comes from ``importlib.import_module``.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    *packages, stem = name.split(".")[1:]
    found = [
        path
        for location in importlib.util.find_spec("scipy").submodule_search_locations
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (path := Path(location, *packages, stem + suffix)).is_file()
    ]
    if not found:
        return importlib.import_module(name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(found[0]))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module
