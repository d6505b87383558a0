"""Multi-transmitter RSS localization toolkit.

Synthesizes multi-source RSS scenarios over rasterized urban layouts and
localizes the transmitters through local radio maps: connected components of
the pixels above a threshold, and sub-pixel coordinate estimation per
component, with a full evaluation suite (mLE, FAR, MDR, OSPA).

numpy's BLAS/LAPACK runs on one thread per process: importing rssloc sets
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1 unless they are already set,
and `--jobs` is the only source of parallelism. The default has no effect
when numpy was imported before rssloc, because OpenBLAS reads the variables
when it loads.
"""

import os

# After each threaded LAPACK call (the kriging solve) OpenBLAS keeps a worker
# spinning on another core for about 0.1 s, which doubles the CPU time of a
# kriging run for no gain in wall time, and competes with the pool's workers
# under --jobs. Forked workers inherit the single-threaded BLAS. A value the
# user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .scenario import (BuildingLayout, Source, Scenario, generate_layout,
                       place_sources, GenerationError, PlacementError)
from .propagation import (PropagationParams, RadioMap, P_MIN_DBM, P_MAX_DBM,
                          encode_bitmap, path_loss, aggregate_rss,
                          rasterize_global, ground_truth_local)
from .sampling import (Route, SampleSet, build_routes, sample_along, add_noise,
                       RouteError)
from .reconstruct import (idw_reconstruct, kriging_reconstruct, proxy_local_map,
                          ReconstructionError)
from .separation import (Component, Labeling, SeparationResult,
                         connected_components, flag_merged, separate_sources,
                         expected_disk_area)
from .localize import (PredictionSet, ESTIMATORS, center_of_mass, localize_all,
                       EmptyMapError)
from .metrics import (Matching, ScenarioEval, EvalReport, optimal_assignment,
                      mle, far_mdr, ospa, evaluate_scenario, aggregate)
from .dataset_io import (DatasetConfig, generate_dataset, read_dataset_index,
                         load_scenario, read_pgm, encode_pgm, decode_pgm,
                         encode_lrmf, decode_lrmf, PgmError, LrmfError)
from .pipeline import LOCAL_MAPS, PipelineConfig, run_pipeline, process_entry

__version__ = "0.1.0"
