"""Test suite package.

Being a package lets test modules import shared helpers as
``from tests.helpers import ...`` — an absolute, unambiguous path that no
same-named file elsewhere in the repo can shadow (the failure mode that
once hid six test modules behind a second ``conftest.py``).
"""
