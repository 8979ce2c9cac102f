"""Shared fixtures: campaign objects are expensive enough to build once."""

import os

# The exact-equality oracles compare against one whole-matrix BLAS product,
# whose bits depend on how many threads split it; one thread, as in
# perfbench, whether numpy links OpenBLAS, an OpenMP BLAS or MKL, unless the
# environment says otherwise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from risbeam.array_model import ArraySpec, uniform_phase_set
from risbeam.chamber import ChamberGeometry, LinkBudget, sweep_absorption, sweep_beampattern
from risbeam.codebook import CodebookGrid, build_codebook


@pytest.fixture(scope="session")
def default_spec():
    return ArraySpec(10, 10)


@pytest.fixture(scope="session")
def default_geometry():
    return ChamberGeometry()


@pytest.fixture(scope="session")
def quiet_budget():
    return LinkBudget(sample_sigma_db=0.0)


@pytest.fixture(scope="session")
def default_codebook(default_spec, default_geometry):
    return build_codebook(default_spec, default_geometry.tx_dir, CodebookGrid(),
                          "tx-compensated")


@pytest.fixture(scope="session")
def quiet_beampattern(default_codebook, default_geometry, quiet_budget):
    return sweep_beampattern(default_codebook, default_geometry, quiet_budget,
                             seed=0)


@pytest.fixture(scope="session")
def quiet_absorption(default_codebook, default_geometry, quiet_budget):
    return sweep_absorption(default_codebook, default_geometry, quiet_budget,
                            seed=0)


@pytest.fixture(scope="session")
def dense_spec():
    # 4096 phases is close enough to continuous that quantization effects
    # vanish below the 6-decimal dataset rounding.
    return ArraySpec(10, 10, phase_set=uniform_phase_set(4096))


@pytest.fixture(scope="session")
def dense_codebook(dense_spec, default_geometry):
    return build_codebook(dense_spec, default_geometry.tx_dir, CodebookGrid(),
                          "tx-compensated")


@pytest.fixture(scope="session")
def dense_beampattern(dense_codebook, default_geometry, quiet_budget):
    return sweep_beampattern(dense_codebook, default_geometry, quiet_budget,
                             seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
