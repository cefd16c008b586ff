"""The README's Python examples, run as written, and the package's public
names, so the docs cannot drift from the code."""

import re
import types
from pathlib import Path

import pytest

import lpakit

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    namespace = {"__name__": f"readme_block_{index}"}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    if index == 0:  # its comment quotes the angle as 1.154...
        assert namespace["offset_angle"](namespace["inst"]).theta == \
            pytest.approx(1.1542, abs=5e-5)
        assert capsys.readouterr().out.splitlines()[-1] == "(64, 64)"


def test_package_all_lists_every_public_name():
    # every public name the package binds, submodules aside, is in __all__,
    # and __all__ names nothing else but the version
    bound = {name for name, value in vars(lpakit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(lpakit.__all__) - {"__version__"}
