"""`python -m irsoob`: the same command line as the `irsoob` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
