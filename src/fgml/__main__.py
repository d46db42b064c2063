"""Command-line entry point: `python -m fgml ...` runs the fgml CLI."""

from .cli import main

if __name__ == "__main__":
    main()
