"""CSR storage and in-place CSR edits.

- :class:`CSRMatrix` — plain-data CSR storage with dense/COO converters;
- :mod:`~repro.sparse.edit` — row splices and entry edits on CSR arrays.

The autograd-integrated sparse layer (``SparsePattern``,
``SparseTensor``, ``spmm``, ``sddmm``, the segment ops and the
``auto`` | ``dense`` | ``sparse`` dispatch rule ``resolve_graph_mode``)
has one import path, :mod:`repro.tensor.sparse`, so the tensor engine
stays dependency-free (see ``docs/performance.md``).
"""

from .csr import CSRMatrix
from .edit import (csr_delete_entries, csr_drop_rowcol, csr_get_entries,
                   csr_set_entries, row_edit_chunks, splice_rows)

__all__ = [
    "CSRMatrix",
    "row_edit_chunks", "splice_rows", "csr_set_entries",
    "csr_delete_entries", "csr_get_entries", "csr_drop_rowcol",
]
