"""README's Quick tour runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_prints_three_equatorial_points_then_a_product_verdict():
    tour = README.read_text().split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", tour, re.DOTALL)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md#quick-tour", "exec"), {})
    assert printed.getvalue().splitlines() == [
        "theta=1.5708  phi=1.5708",
        "theta=1.5708  phi=3.1416",
        "theta=1.5708  phi=4.7124",
        "True",
    ]
