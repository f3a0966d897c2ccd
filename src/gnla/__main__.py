"""`python -m gnla`: the command line driver, the same as the `gnla`
console script."""

from .cli import main

if __name__ == "__main__":
    main()
