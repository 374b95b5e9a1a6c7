import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_import_block_runs():
    """Every name the README's library block imports is still exported."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imports = [b for b in blocks if b.startswith("from qmkgf import (")]
    assert len(imports) == 1
    exec(compile(imports[0], str(README), "exec"), {})
