# Docs freshness gate, run as the `docs_check` ctest target.
#
# Verifies that the onboarding docs exist and still document the
# canonical commands this repo is driven with — so a build-system or
# bench-workflow change that forgets the docs fails CI instead of
# silently rotting README.md. Invoked as:
#   cmake -DREPO_ROOT=<repo> -P cmake/docs_check.cmake

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "docs_check: pass -DREPO_ROOT=<repo root>")
endif()

set(failures 0)

function(require_file path)
  if(NOT EXISTS "${REPO_ROOT}/${path}")
    message(SEND_ERROR "docs_check: missing ${path}")
    math(EXPR failures "${failures}+1")
    set(failures ${failures} PARENT_SCOPE)
  endif()
endfunction()

function(require_content path)
  file(READ "${REPO_ROOT}/${path}" contents)
  foreach(needle ${ARGN})
    string(FIND "${contents}" "${needle}" found)
    if(found EQUAL -1)
      message(SEND_ERROR "docs_check: ${path} no longer mentions '${needle}'")
      math(EXPR failures "${failures}+1")
      set(failures ${failures} PARENT_SCOPE)
    endif()
  endforeach()
endfunction()

require_file(README.md)
require_file(docs/ARCHITECTURE.md)
require_file(ROADMAP.md)

if(failures EQUAL 0)
  # The build/test/bench commands users copy-paste must stay real.
  require_content(README.md
      "cmake -B build -S ."
      "cmake --build build -j"
      "ctest --output-on-failure"
      "wcet_cycles"
      "-L tier1"
      "WCET_SANITIZE"
      "WCET_SANITIZE=thread"
      "cache_join_skips"
      "WCET_COW_CHECK"
      "wcet_cli"
      "--deadline-ms"
      "--budget-value-visits"
      "--budget-ilp-nodes"
      "degradation ledger"
      "tier1-faults"
      "budget_checks"
      "cancel_latency_us"
      "--validate"
      "tightness_x1000"
      "ParallelOracle.ScalingShapeBoundsPinned"
      "wcet_serve"
      "--stats"
      "fingerprint"
      "dirty_instances"
      "perfbench/run.py")
  require_content(docs/ARCHITECTURE.md
      "run_figure1"
      "Dense per-run scratch"
      "AnalysisContext"
      "TransferCache"
      "instance_rounds.hpp"
      "thread_pool.hpp"
      "build_cache_recipes"
      "Flat recipe tables"
      "transfer_block"
      "Recursive IPET decomposition"
      "Sparse-row simplex"
      "solve_ilp_pair"
      "emit_crash_basis"
      "set_basis_hint"
      "crash_eliminate"
      "phase1_pivots"
      "solve_levels"
      "Copy-on-write abstract states"
      "cow.hpp"
      "CowPtr"
      "detach-on-mutate"
      "fetch_groups"
      "record_node_lazy"
      "AnalysisBudget"
      "AnalysisGovernor"
      "CancelToken"
      "CancelledError"
      "record_node_conservative"
      "WCET_FAULT_POINT"
      "Degradation"
      "PathOracle"
      "path-exploration oracle"
      "witness replay"
      "witness_available"
      "AnalysisServer"
      "WarmHandoff"
      "verified, never trusted"
      "warm_guard_ok"
      "ServeStats")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "docs_check: ${failures} problem(s)")
endif()
message(STATUS "docs_check: OK")
