"""Golden models the equivalence suites compare production code against.

Each oracle is the straightforward formulation of a pipeline stage —
per-op simulator issue, timing-free kernel execution, the classic FM
loop and per-vertex FM gains, array-at-a-time region growing,
sort-ranked matching, per-edge cut counts, per-row SpTRSV and IC(0),
per-element dataflow lowering, per-pair routing and per-tree
construction, per-column traffic analysis, and the k-d tree
nearest-neighbour query — kept only as a test reference:

* :mod:`tests.oracles.sim` — operation-granularity PE issue;
* :mod:`tests.oracles.functional` — compiled SpMV/SpTRSV programs
  executed without timing;
* :mod:`tests.oracles.refine` — the FM selection loop that re-pushes
  every neighbour, and bookkeeping that recomputes gains;
* :mod:`tests.oracles.initial` — array-at-a-time region growing;
* :mod:`tests.oracles.coarsen` — score-sorted matching and per-size
  contraction;
* :mod:`tests.oracles.metrics` — per-edge connectivity counts;
* :mod:`tests.oracles.kernels` — forward and backward substitution row
  by row, and the up-looking row-by-row IC(0);
* :mod:`tests.oracles.lowering` — the per-element lowering loop, with
  dense local-FMAC counters;
* :mod:`tests.oracles.trees` — one dimension-order route, multicast
  tree and reduction tree at a time, and each tile's grid neighbours;
* :mod:`tests.oracles.traffic` — traffic counted from per-column and
  per-row tile sets, one tree at a time;
* :mod:`tests.oracles.neighbors` — scipy's cKDTree neighbour query.
"""
