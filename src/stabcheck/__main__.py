"""python -m stabcheck: the command line, as the stabcheck script runs it."""

from .cli import entry

if __name__ == "__main__":
    entry()
