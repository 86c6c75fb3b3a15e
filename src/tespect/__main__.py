"""``python -m tespect``: the ``te-spect`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
