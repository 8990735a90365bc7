"""`python -m b3image`: the command line without an installed console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
