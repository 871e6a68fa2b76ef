"""Allow `python -m tabgrid` as an alternative to the `tabgrid` script."""

from tabgrid.cli import run

if __name__ == "__main__":
    run()
