"""Every backticked ``repro.…`` name in the docs resolves.

README.md, DESIGN.md and ``docs/`` name modules and attributes as
`` `repro.a.b` ``; a rename or a deletion that leaves such a name
behind fails here.  The one allow-list is DESIGN.md §10's "Moved or
dropped by the layering" table, whose first column names what no
longer exists on purpose.
"""

import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("**/*.md"))]
NAME = re.compile(r"`(repro(?:\.\w+)+)[^`]*`")


def moved_or_dropped():
    """The names in the first column of the layering table."""
    text = (ROOT / "DESIGN.md").read_text()
    table = text.split("**Moved or dropped by the layering**", 1)[1]
    rows = re.findall(r"^\| (.*?) \|", table.split("\n\n", 2)[1], re.M)
    return {name for row in rows for name in NAME.findall(row)}


def resolves(name):
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_documented_name_resolves():
    allowed = moved_or_dropped()
    assert {"repro.core.stage", "repro.ReproError"} <= allowed
    gone = sorted({f"{path.relative_to(ROOT)}: `{name}`"
                   for path in DOCS
                   for name in NAME.findall(path.read_text())
                   if name not in allowed and not resolves(name)})
    assert not gone, gone
