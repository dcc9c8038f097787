import inspect

import pinchsim


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from pinchsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pinchsim.__all__)
    assert len(set(pinchsim.__all__)) == len(pinchsim.__all__)
    # every non-underscore, non-module attribute is listed, and nothing else
    public = {name for name, value in vars(pinchsim).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(pinchsim.__all__) - {"__version__"} == public
