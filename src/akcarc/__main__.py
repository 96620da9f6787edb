"""`python -m akcarc`: the `akcarc` command, run from a checkout."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
