"""The README's Python examples, run as written, its JSON configs, and the
package's public names, so the docs cannot drift from the code."""

import json
import re
import types
from pathlib import Path

import pytest

import lpakit
from lpakit.config import scan_config_from_dict
from lpakit.operators import FAMILY_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
JSON_BLOCKS = re.findall(r"^```json\n(.*?)^```", TEXT, flags=re.M | re.S)


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


def test_readme_json_configs_load():
    # every config shown validates and names a shipped family
    assert JSON_BLOCKS
    for block in JSON_BLOCKS:
        assert scan_config_from_dict(json.loads(block)).operator_name in FAMILY_NAMES


def test_package_all_lists_every_public_name():
    # every public name the package binds, submodules aside, is in __all__,
    # and __all__ names nothing else but the version
    bound = {name for name, value in vars(lpakit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(lpakit.__all__) - {"__version__"}
