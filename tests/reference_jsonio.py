"""Reference text of every document the command line writes.

``page_json`` is the dict a ``Page`` stood for in a ``pages`` document
before ``jsonio`` wrote pages directly; ``oracle`` is then
``json.dumps(doc, indent=2)`` with a page read as that dict.  It reads
each differential as the dense matrix ``Page.diff`` gives, so it stays
independent of the writer, which works from the sparse rows.
``DocumentCheck`` makes a test's every emitted document pass through
``oracle``, compared as a string.
"""

import json

from nilhom import cli, jsonio
from nilhom.spectral import Page


def page_json(page: Page):
    if not isinstance(page, Page):
        raise TypeError(f"Object of type {type(page).__name__} "
                        "is not JSON serializable")
    cells = [{"p": p, "q": q, "dim": len(labels),
              "basis": [[list(I), list(J)] for I, J in labels]}
             for (p, q), labels in sorted(page.cells.items())]
    dense = [((p, q), page.diff(p, q)) for p, q in sorted(page.diffs)]
    diffs = [{"p": p, "q": q,
              "matrix": [[str(x) for x in row] for row in d.entries]}
             for (p, q), d in dense
             if d.rows and d.cols and not d.is_zero()]
    return {"cells": cells, "differentials": diffs}


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, default=page_json)


def dumps(doc) -> str:
    """``jsonio.write_json``'s chunks, joined."""
    chunks = []
    jsonio.write_json(doc, chunks.append)
    return "".join(chunks)


class DocumentCheck:
    """Checks every document ``cli._emit`` writes against ``oracle``.

    Installed on a pytest ``monkeypatch``: ``jsonio.write_json`` compares
    its joined chunks with ``oracle(doc)`` before passing them on, and
    both it and ``cli._emit`` count their documents, so that ``verify``
    can tell that none was written past the check.  ``docs`` holds the
    checked documents in order.
    """

    def __init__(self, monkeypatch):
        self.docs, self.emitted = [], 0
        write_json, emit = jsonio.write_json, cli._emit

        def checked(doc, write):
            chunks = []
            write_json(doc, chunks.append)
            assert "".join(chunks) == oracle(doc)
            self.docs.append(doc)
            for chunk in chunks:
                write(chunk)

        def counted(doc, output):
            self.emitted += 1
            emit(doc, output)

        monkeypatch.setattr(jsonio, "write_json", checked)
        monkeypatch.setattr(cli, "_emit", counted)

    def verify(self):
        assert len(self.docs) == self.emitted
