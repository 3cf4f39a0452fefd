"""The benchmark matrix suite (stand-in for paper Table IV).

The paper evaluates on the 20 largest SuiteSparse SPD matrices that fit
in the 4096-tile machine, plus larger sets for the scaled-up designs.
Those files are not available offline, so each paper matrix gets a
*synthetic analog* chosen to match its performance-relevant character:

* very dense rows and low SpTRSV parallelism (``thread``, ``nd12k``,
  ``pdb1HYS``, ``crankseg_1``) -> banded / block-dense generators;
* unstructured FEM meshes with medium parallelism (``shipsec1``,
  ``consph``, ``hood``, ...) -> random-geometric mesh generator with
  multi-DOF node blocks;
* grid-structured, ~5-nonzeros-per-row, high-parallelism matrices
  (``thermal2``, ``apache2``, ``G3_circuit``, ``ecology2``) -> 2D/3D
  Laplacians and random circuit graphs.

Suite order follows the paper's figures: matrices are listed from least
to most available parallelism.  Sizes are scaled down so the
operation-level cycle simulator is tractable in pure Python; the
``scale`` parameter grows matrices for the scaling study (Fig. 28).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse import generators as gen


@dataclass(frozen=True)
class SuiteMatrix:
    """One entry of the benchmark suite.

    Attributes
    ----------
    name:
        The paper matrix this entry stands in for (Table IV name).
    category:
        Structural family: ``"banded"``, ``"block-dense"``, ``"mesh"``,
        ``"grid"`` or ``"random"``.
    description:
        Human-readable provenance of the paper matrix and of the analog.
    section:
        Which machine size the paper places the matrix in: ``"small"``
        (fits 64x64 tiles), ``"medium"`` (16K tiles), ``"large"``
        (64K tiles).
    builder:
        Callable ``scale -> CSRMatrix`` producing the analog.
    """

    name: str
    category: str
    description: str
    section: str
    builder: Callable[[int], CSRMatrix]

    def build(self, scale: int = 1) -> CSRMatrix:
        """Generate the matrix at the given scale factor."""
        return self.builder(scale)


def _fem(points, degree, dofs, seed):
    def build(scale):
        return gen.random_geometric_fem(
            points * scale, avg_degree=degree, dim=3,
            dofs_per_node=dofs, seed=seed,
        )
    return build


_SUITE = [
    SuiteMatrix(
        "thread", "banded",
        "Threaded-connector stiffness; ~150 nnz/row, lowest parallelism. "
        "Analog: dense wide band (long dependence chains).",
        "small", lambda s: gen.banded_spd(420 * s, 36, density=0.65, seed=1),
    ),
    SuiteMatrix(
        "pdb1HYS", "block-dense",
        "Protein structure; dense clusters. Analog: dense diagonal blocks "
        "with sparse coupling.",
        "small", lambda s: gen.block_dense_spd(22 * s, 26, 6, seed=2),
    ),
    SuiteMatrix(
        "nd12k", "block-dense",
        "ND problem set; ~395 nnz/row, parallelism-bound even at 4096 PEs. "
        "Analog: large dense blocks.",
        "small", lambda s: gen.block_dense_spd(11 * s, 44, 4, seed=3),
    ),
    SuiteMatrix(
        "crankseg_1", "banded",
        "Crankshaft FEM; ~200 nnz/row, low parallelism. Analog: wide "
        "random band.",
        "small", lambda s: gen.banded_spd(560 * s, 28, density=0.7, seed=4),
    ),
    SuiteMatrix(
        "m_t1", "mesh",
        "Tubular joint FEM; ~100 nnz/row. Analog: 3D mesh, 3 DOF/node.",
        "small", _fem(200, 8, 3, seed=5),
    ),
    SuiteMatrix(
        "shipsec1", "mesh",
        "Ship section FEM; ~55 nnz/row. Analog: 3D mesh, 3 DOF/node.",
        "small", _fem(230, 7, 3, seed=6),
    ),
    SuiteMatrix(
        "cant", "mesh",
        "Cantilever FEM; ~64 nnz/row. Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(330, 10, 2, seed=7),
    ),
    SuiteMatrix(
        "s3dkt3m2", "mesh",
        "Cylindrical shell FEM; ~41 nnz/row. Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(380, 8, 2, seed=8),
    ),
    SuiteMatrix(
        "boneS01", "mesh",
        "Bone micro-FEM; ~53 nnz/row. Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(400, 9, 2, seed=9),
    ),
    SuiteMatrix(
        "consph", "mesh",
        "Concentric spheres FEM; ~72 nnz/row; the paper's time-balancing "
        "case study (Fig. 17). Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(420, 9, 2, seed=10),
    ),
    SuiteMatrix(
        "bmwcra_1", "mesh",
        "Automotive crankshaft FEM; ~71 nnz/row. Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(450, 10, 2, seed=11),
    ),
    SuiteMatrix(
        "hood", "mesh",
        "Car hood FEM; ~49 nnz/row. Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(500, 8, 2, seed=12),
    ),
    SuiteMatrix(
        "pwtk", "mesh",
        "Pressurized wind tunnel FEM; ~53 nnz/row. Analog: 3D mesh, "
        "2 DOF/node.",
        "small", _fem(520, 9, 2, seed=13),
    ),
    SuiteMatrix(
        "BenElechi1", "mesh",
        "FEM stiffness; ~54 nnz/row; the paper's peak-throughput matrix. "
        "Analog: 3D mesh, 2 DOF/node.",
        "small", _fem(560, 10, 2, seed=14),
    ),
    SuiteMatrix(
        "offshore", "grid",
        "Transient field in offshore structure; ~16 nnz/row. Analog: 3D "
        "grid Laplacian with mild randomization.",
        "small", lambda s: gen.grid_laplacian_3d(12 * s, 10, 9),
    ),
    SuiteMatrix(
        "tmt_sym", "grid",
        "Electromagnetics; ~7 nnz/row. Analog: 2D 5-point Laplacian.",
        "small", lambda s: gen.grid_laplacian_2d(36 * s, 34),
    ),
    SuiteMatrix(
        "thermal2", "grid",
        "Unstructured thermal FEM; ~7 nnz/row, high parallelism. Analog: "
        "2D 5-point Laplacian.",
        "small", lambda s: gen.grid_laplacian_2d(42 * s, 40),
    ),
    SuiteMatrix(
        "apache2", "grid",
        "3D structural problem; ~7 nnz/row. Analog: 3D 7-point Laplacian.",
        "small", lambda s: gen.grid_laplacian_3d(13 * s, 12, 11),
    ),
    SuiteMatrix(
        "G3_circuit", "random",
        "Circuit simulation; ~5 nnz/row at uncorrelated coordinates. "
        "Analog: random sparse graph.",
        "small", lambda s: gen.random_spd(1500 * s, nnz_per_row=5, seed=15),
    ),
    SuiteMatrix(
        "ecology2", "grid",
        "Landscape ecology; ~5 nnz/row, highest parallelism. Analog: 2D "
        "5-point Laplacian.",
        "small", lambda s: gen.grid_laplacian_2d(46 * s, 45),
    ),
    # ------------------------------------------------------------------
    # Scaled-up sections (paper Table IV mid/bottom; used in Fig. 28).
    # ------------------------------------------------------------------
    SuiteMatrix(
        "af_shell8", "mesh",
        "Sheet-metal forming FEM (16K-tile section). Analog: larger 3D "
        "mesh, 2 DOF/node.",
        "medium", _fem(1100, 9, 2, seed=16),
    ),
    SuiteMatrix(
        "StocF-1465", "grid",
        "Flow in porous medium (16K-tile section). Analog: larger 3D grid.",
        "medium", lambda s: gen.grid_laplacian_3d(20 * s, 18, 16),
    ),
    SuiteMatrix(
        "audikw_1", "mesh",
        "Automotive FEM (16K-tile section); dense rows. Analog: larger 3D "
        "mesh, 3 DOF/node.",
        "medium", _fem(520, 10, 3, seed=17),
    ),
    SuiteMatrix(
        "Flan_1565", "mesh",
        "3D steel-flange FEM (64K-tile section). Analog: largest mesh, "
        "2 DOF/node.",
        "large", _fem(2400, 9, 2, seed=18),
    ),
    SuiteMatrix(
        "Queen_4147", "mesh",
        "3D structural FEM, largest matrix (64K-tile section). Analog: "
        "largest mesh, 3 DOF/node.",
        "large", _fem(1400, 10, 3, seed=19),
    ),
]

_BY_NAME = {entry.name: entry for entry in _SUITE}

#: The six matrices the paper uses in its motivating figures
#: (Figs. 1, 3, 7, 9 and Table I).
REPRESENTATIVE = (
    "crankseg_1", "m_t1", "shipsec1", "consph", "thermal2", "apache2",
)


def azul_suite(section: str = "small") -> list:
    """Return the suite entries for a machine-size section.

    ``section="small"`` gives the 20-matrix analog of the paper's main
    evaluation set, in the paper's order (least to most parallelism);
    ``"medium"`` and ``"large"`` add the scaled-up entries of Fig. 28;
    ``"all"`` returns everything.
    """
    if section == "all":
        return list(_SUITE)
    if section == "small":
        return [m for m in _SUITE if m.section == "small"]
    if section == "medium":
        return [m for m in _SUITE if m.section in ("small", "medium")]
    if section == "large":
        return list(_SUITE)
    raise ValueError(f"unknown suite section {section!r}")


def representative_suite() -> list:
    """The six representative matrices used by the motivating figures."""
    return [_BY_NAME[name] for name in REPRESENTATIVE]


def suite_names(section: str = "small") -> list:
    """Names of the suite matrices in paper (parallelism) order."""
    return [m.name for m in azul_suite(section)]


@lru_cache(maxsize=64)
def _cached_build(name: str, scale: int) -> CSRMatrix:
    return _BY_NAME[name].build(scale)


def get_suite_matrix(name: str, scale: int = 1, with_rhs: bool = True):
    """Build (and cache) a suite matrix by name.

    Returns ``(matrix, b)`` when ``with_rhs`` is true, else just the
    matrix.  The right-hand side is derived from a known random solution
    (see :func:`repro.sparse.generators.make_rhs`).
    """
    if name not in _BY_NAME:
        raise KeyError(
            f"unknown suite matrix {name!r}; choices: {sorted(_BY_NAME)}"
        )
    matrix = _cached_build(name, scale)
    if not with_rhs:
        return matrix
    # Seeded from a digest of the name, so every process builds the
    # same b: hash() of a string is salted per process.
    digest = hashlib.sha256(name.encode()).digest()
    b = gen.make_rhs(matrix, seed=int.from_bytes(digest[:8], "little"))
    return matrix, b


def suite_inventory(section: str = "small", scale: int = 1):
    """Table IV analog: per-matrix n, nnz, and SRAM footprints.

    Returns a list of dicts with keys ``name, category, n, nnz,
    nnz_per_row, a_bytes, b_bytes``.
    """
    from repro.sparse.properties import (
        matrix_footprint_bytes,
        vector_footprint_bytes,
    )

    rows = []
    for entry in azul_suite(section):
        matrix = _cached_build(entry.name, scale)
        rows.append({
            "name": entry.name,
            "category": entry.category,
            "section": entry.section,
            "n": matrix.n_rows,
            "nnz": matrix.nnz,
            "nnz_per_row": matrix.nnz / matrix.n_rows,
            "a_bytes": matrix_footprint_bytes(matrix),
            "b_bytes": vector_footprint_bytes(matrix.n_rows),
        })
    return rows
