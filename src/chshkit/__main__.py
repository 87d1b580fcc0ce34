"""``python -m chshkit`` and the ``chshkit`` console script."""

import os


def main() -> None:
    """Run the command line with one BLAS thread unless the user chose a count.

    numpy's OpenBLAS starts a thread per CPU when numpy is imported, and no
    command uses more than one, so the default must be set before
    ``chshkit.cli`` imports numpy.  ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` set by the user is left as it is.
    """
    if "OMP_NUM_THREADS" not in os.environ:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    cli.main_entry()


if __name__ == "__main__":
    main()
