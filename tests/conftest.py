"""Run the suite with single-threaded BLAS, as the CLI and the campaign
workers do: pivot paths on tall instances depend on the BLAS thread count.
This takes effect because numpy is not yet loaded when pytest imports this
file."""

from randlp.cli import cap_blas_threads

cap_blas_threads()
