"""`python -m peakless`: the `peakless` command, which ends at `cli.run`."""
from .cli import run

if __name__ == "__main__":
    run()
