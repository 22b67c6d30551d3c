"""Command-line subprocesses started by the tests import this checkout's package."""

import os

import posetdecomp

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(posetdecomp.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
