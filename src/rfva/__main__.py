"""``python -m rfva``: the same command line as the ``rfva`` script."""

from .cli import main

if __name__ == "__main__":
    main()
