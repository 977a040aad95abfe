"""The README's library example runs as written against the current API."""

import math
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert abs(namespace["t_star"] - 1.0 / math.log(2.0 + math.sqrt(5.0))) < 1e-4
