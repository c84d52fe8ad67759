"""`python -m illoc`: the same commands as the `illoc` console script."""

from .cli import console

if __name__ == "__main__":
    console()
