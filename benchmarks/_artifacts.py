"""Where the benchmark scripts write their results.

A full run writes the committed ``BENCH_<name>.json`` (repo root) and
``results/<stem>.txt``.  A ``--smoke`` run writes
``BENCH_<name>.smoke.json`` and ``results/<stem>.smoke.txt`` instead.
Git ignores those, so a smoke run (CI, a quick local check) never
overwrites the committed full-run results.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_artifacts(name: str, smoke: bool, text: str, payload: dict, *,
                    stem: str | None = None, out: str | None = None,
                    merge: bool = False) -> None:
    """Write the text report and the JSON payload of one run.

    ``stem`` names the text report (default ``bench_<name>``); ``out``
    overrides the JSON path; ``merge`` updates the existing JSON
    instead of replacing it, for benchmarks whose modes share a file.
    """
    tag = ".smoke" if smoke else ""
    json_path = pathlib.Path(out) if out else ROOT / f"BENCH_{name}{tag}.json"
    txt_path = ROOT / "results" / f"{stem or 'bench_' + name}{tag}.txt"
    txt_path.parent.mkdir(exist_ok=True)
    txt_path.write_text(text + "\n")
    if merge and json_path.exists():
        payload = {**json.loads(json_path.read_text()), **payload}
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
