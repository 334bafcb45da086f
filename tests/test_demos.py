"""Every script in demos/ runs to completion against the current library.

The demos import public names directly, so a renamed or removed name shows
up here instead of in the first reader's traceback.
"""

import contextlib
import io
import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    # demos that write files put them under the temporary directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
