"""Map `Report` JSON back to the two report layouts it replaced.

Convexity reports had `pairs`/`t_grid`; variational-inequality reports
had `form`/`t_samples`/`z_samples`/`worst`.  `old_layout` renames a
`Report`'s keys to those and drops the `tested` count, which neither
had; `tests/test_checker_pins.py` compares with the pins through it.

Run as a script, it compares two files of one `check-convexity` or
`check-evi` config, written in the earlier layout and in the `Report`
layout, and exits 0 iff every key and value match under the map:

    python tests/report_keymap.py OLD.json NEW.json
"""

import json
import sys

CONVEXITY_KEYS = {"rows": "pairs", "cols": "t_grid"}
EVI_KEYS = {"kind": "form", "rows": "t_samples", "cols": "z_samples",
            "witness": "worst"}


def old_layout(rep: dict) -> dict:
    """A `Report`'s JSON under the earlier key names, without `tested`."""
    keys = EVI_KEYS if rep["kind"].startswith("evi") else CONVEXITY_KEYS
    return {keys.get(k, k): v for k, v in rep.items() if k != "tested"}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        old = json.load(fh)
    with open(argv[2]) as fh:
        new = json.load(fh)
    mapped = old_layout(new)
    for key in sorted(set(old) | set(mapped)):
        if old.get(key) != mapped.get(key):
            print(f"differ: {key}: {old.get(key)!r} != {mapped.get(key)!r}")
    same = old == mapped
    print(f"equal under the key map: {same} ({len(old)} keys, "
          f"tested={new.get('tested')} of {new['rows'] * new['cols']} cells)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
