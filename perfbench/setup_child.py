"""Set-up probe: a fresh interpreter imports gibbskit and builds a workload's fields.

    python3 perfbench/setup_child.py PAYLOAD.json MODULE...

PAYLOAD.json holds {"specs": [field spec, ...], "paths": [field file, ...]};
each spec goes through field_from_dict and each file through load_field.
"""

import importlib
import json
import sys


def main():
    payload_path, *modules = sys.argv[1:]
    for name in modules:
        importlib.import_module(name)
    fields = importlib.import_module("gibbskit.fields")
    with open(payload_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for spec in payload["specs"]:
        fields.field_from_dict(spec)
    for path in payload["paths"]:
        fields.load_field(path)


if __name__ == "__main__":
    main()
