# Docs-vs-code consistency check, run as a ctest entry (docs_references).
#
# Fails when README.md / docs/BENCHMARKS.md / docs/OBSERVABILITY.md /
# docs/ARCHITECTURE.md / docs/FULLKEY.md / EXPERIMENTS.md reference a
# bench binary that no longer has a source file, when a documented
# command-line flag or SLM_* knob is gone from the sources, when
# OBSERVABILITY.md catalogs an `slm.` metric name that no source emits,
# or when a retired flag, knob or metric is still documented as live —
# so renaming a bench, dropping a flag, or renaming a metric without
# updating the docs breaks the build, not the reader.
#
# Usage: cmake -DREPO=<source root> -P check_docs.cmake

cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)

file(READ ${REPO}/README.md readme)
file(READ ${REPO}/docs/BENCHMARKS.md benchdoc)
file(READ ${REPO}/docs/OBSERVABILITY.md obsdoc)
file(READ ${REPO}/docs/ARCHITECTURE.md archdoc)
file(READ ${REPO}/docs/FULLKEY.md fullkeydoc)
file(READ ${REPO}/docs/SERVE.md servedoc)
file(READ ${REPO}/docs/STORE.md storedoc)
file(READ ${REPO}/docs/CLI.md clidoc)
file(READ ${REPO}/EXPERIMENTS.md experiments)
set(docs "${readme}\n${benchdoc}\n${obsdoc}\n${archdoc}\n${fullkeydoc}\n${servedoc}\n${storedoc}\n${clidoc}\n${experiments}")

set(errors "")

# Surfaces retired from the product: the RNG contract v1 switch, the
# reference-kernel switch, the serial generate/compute pipeline and its
# metrics, the farmed full-key mode, and the process fabric (its attack
# worker flags, submit --fabric-shards, serve --slm-bin, and its
# slm.fabric.* and serve fabric-job metrics). The docs may still name
# them, but only on a line that says they are retired (section 6); the
# forward checks below skip them, since no source mentions them.
set(retired_flags "--rng-contract" "--fullkey-mode" "--shard" "--range"
    "--snapshot-out" "--snapshot-every" "--dry-run" "--fabric-shards"
    "--slm-bin")
set(retired_knobs "SLM_RNG_CONTRACT" "SLM_COMPILED" "SLM_PIPELINE")
set(retired_metric_prefix "slm.pipeline." "slm.fabric."
    "slm.serve.fabric_jobs_total")
# The single-analysis replay functions and their options struct, folded
# into store::replay_all; the sharded-engine wrapper class, folded into
# CpaCampaign::run(threads); StealthyAttack's multi-byte runner; and the
# victim's POPCNT kernel choice, replaced by AesDatapathModel::Level; and
# the process fabric's worker, coordinator and snapshot format. Section 6
# also scans DESIGN.md for these.
set(retired_api "replay_attack" "replay_fullkey" "replay_tvla"
    "ReplayFullKeyOptions" "ParallelCampaign" "recover_key_bytes"
    "HdKernel" "kPopcnt" "active_hd_kernel" "FabricWorker"
    "coordinate_local" "SLMSNAP1")

# 1. Every `bench_*` name in the docs must exist as a source file under
#    bench/ or be wired up in bench/CMakeLists.txt (ctest-only entries
#    like bench_smoke have no dedicated source).
file(READ ${REPO}/bench/CMakeLists.txt benchcmake)
string(REGEX MATCHALL "bench_[a-z0-9_]+" doc_benches "${docs}")
list(REMOVE_DUPLICATES doc_benches)
foreach(b ${doc_benches})
  if(NOT EXISTS ${REPO}/bench/${b}.cpp AND NOT EXISTS ${REPO}/bench/${b}.hpp)
    string(FIND "${benchcmake}" "${b}" pos)
    if(pos EQUAL -1)
      string(APPEND errors "docs reference '${b}' but bench/${b}.cpp does not exist\n")
    endif()
  endif()
endforeach()

# 2. Every --flag documented in BENCHMARKS.md, OBSERVABILITY.md, or
#    FULLKEY.md must appear literally in the CLI, the bench scaffolding,
#    or an example.
set(flag_sources "")
foreach(src tools/slm_cli.cpp bench/bench_util.hpp
        examples/full_key_recovery.cpp)
  file(READ ${REPO}/${src} one)
  string(APPEND flag_sources "${one}\n")
endforeach()
string(REGEX MATCHALL "--[a-z][a-z0-9-]+" doc_flags
       "${benchdoc}\n${obsdoc}\n${fullkeydoc}\n${servedoc}\n${storedoc}\n${clidoc}")
list(REMOVE_DUPLICATES doc_flags)
foreach(f ${doc_flags})
  if(f IN_LIST retired_flags)
    continue()
  endif()
  string(FIND "${flag_sources}" "${f}" pos)
  if(pos EQUAL -1)
    string(APPEND errors "docs document flag '${f}' but no source mentions it\n")
  endif()
endforeach()

# 3. Every SLM_* knob documented in README, BENCHMARKS, OBSERVABILITY,
#    or ARCHITECTURE must appear in the sources or the build system.
file(READ ${REPO}/CMakeLists.txt rootcmake)
file(READ ${REPO}/src/obs/observer.cpp obssrc)
file(READ ${REPO}/src/core/campaign.cpp campaignsrc)
file(READ ${REPO}/tests/regression/golden_trace_test.cpp goldensrc)
string(APPEND flag_sources "${rootcmake}\n${obssrc}\n${campaignsrc}\n${goldensrc}\n")
string(REGEX MATCHALL "SLM_[A-Z_]+" doc_knobs
       "${readme}\n${benchdoc}\n${obsdoc}\n${archdoc}\n${fullkeydoc}\n${servedoc}\n${storedoc}\n${clidoc}")
list(REMOVE_DUPLICATES doc_knobs)
foreach(k ${doc_knobs})
  if(k IN_LIST retired_knobs)
    continue()
  endif()
  string(FIND "${flag_sources}" "${k}" pos)
  if(pos EQUAL -1)
    string(APPEND errors "docs document knob '${k}' but neither the sources nor CMake mention it\n")
  endif()
endforeach()

# 4. Every `slm.` metric name cataloged in OBSERVABILITY.md must be
#    emitted somewhere under src/ (campaigns, observer, checkpointing).
#    Prefix names ending in '.' (e.g. the slm.span.<name>_seconds
#    family) are checked as prefixes, which the literal FIND already is.
set(metric_sources "")
file(GLOB_RECURSE metric_files ${REPO}/src/obs/*.cpp ${REPO}/src/obs/*.hpp
     ${REPO}/src/core/*.cpp ${REPO}/src/serve/*.cpp ${REPO}/src/store/*.cpp)
foreach(src ${metric_files})
  file(READ ${src} one)
  string(APPEND metric_sources "${one}\n")
endforeach()
string(REGEX MATCHALL "slm\\.[a-z0-9_]+\\.[a-z0-9_.]*[a-z0-9_]" doc_metrics
       "${obsdoc}\n${servedoc}\n${storedoc}")
list(REMOVE_DUPLICATES doc_metrics)
foreach(m ${doc_metrics})
  set(retired_metric FALSE)
  foreach(prefix ${retired_metric_prefix})
    string(FIND "${m}" "${prefix}" retired_pos)
    if(retired_pos EQUAL 0)
      set(retired_metric TRUE)
    endif()
  endforeach()
  if(retired_metric)
    continue()
  endif()
  # Family entries are documented as slm.span.<name>_seconds; match on
  # the emitting prefix instead of the placeholder.
  string(REGEX REPLACE "<[a-z]+>.*$" "" m_literal "${m}")
  string(FIND "${metric_sources}" "${m_literal}" pos)
  if(pos EQUAL -1)
    string(APPEND errors "OBSERVABILITY.md catalogs metric '${m}' but src/ never emits it\n")
  endif()
endforeach()

# 5. The checkpoint format version documented in OBSERVABILITY.md and
#    FULLKEY.md must match kCheckpointVersion in src/core/checkpoint.hpp
#    — bumping the binary format without re-documenting it (or vice
#    versa) fails here.
file(READ ${REPO}/src/core/checkpoint.hpp ckpthdr)
string(REGEX MATCH "kCheckpointVersion = ([0-9]+)" _ "${ckpthdr}")
set(ckpt_version "${CMAKE_MATCH_1}")
if(ckpt_version STREQUAL "")
  string(APPEND errors "cannot find kCheckpointVersion in src/core/checkpoint.hpp\n")
endif()
string(REGEX MATCHALL "format version [0-9]+" doc_versions
       "${obsdoc}\n${fullkeydoc}")
list(REMOVE_DUPLICATES doc_versions)
if(doc_versions STREQUAL "")
  string(APPEND errors "OBSERVABILITY.md no longer documents the checkpoint 'format version N'\n")
endif()
foreach(v ${doc_versions})
  if(NOT v STREQUAL "format version ${ckpt_version}")
    string(APPEND errors "OBSERVABILITY.md/FULLKEY.md say checkpoint '${v}' but kCheckpointVersion is ${ckpt_version}\n")
  endif()
endforeach()

# 6. Retired surfaces must not be documented as live: every line of
#    the docs that names a retired flag, knob, metric or API must say,
#    on that same line, that it is retired.
file(READ ${REPO}/DESIGN.md design)
string(REPLACE ";" "," docs_lines "${docs}")
string(REPLACE ";" "," design_lines "${design}")
set(retired_metric_patterns "")
foreach(prefix ${retired_metric_prefix})
  string(REPLACE "." "\\." pattern "${prefix}")
  list(APPEND retired_metric_patterns "${pattern}")
endforeach()
foreach(name ${retired_flags} ${retired_knobs} ${retired_metric_patterns}
        ${retired_api})
  set(scanned "${docs_lines}")
  if(name IN_LIST retired_api)
    string(APPEND scanned "\n${design_lines}")
  endif()
  string(REGEX MATCHALL "[^\n]*${name}[^\n]*" hits "${scanned}")
  foreach(line ${hits})
    if(NOT line MATCHES "retired")
      string(APPEND errors "docs still document retired '${name}' as live: ${line}\n")
    endif()
  endforeach()
endforeach()

# 7. The full-key pipeline story must stay documented: FULLKEY.md has
#    to cover the CLI surface (--full-key, --early-exit)
#    and the bench (bench_fullkey + its fullkey_speedup JSON field), and
#    OBSERVABILITY.md must keep the slm.fullkey.* metric family and the
#    per-byte convergence event in its catalogs.
foreach(needed "--full-key" "--early-exit" "bench_fullkey"
        "fullkey_speedup")
  if(NOT fullkeydoc MATCHES "${needed}")
    string(APPEND errors "FULLKEY.md no longer documents '${needed}'\n")
  endif()
endforeach()
if(NOT obsdoc MATCHES "slm\\.fullkey\\.")
  string(APPEND errors "OBSERVABILITY.md no longer documents the slm.fullkey.* metrics\n")
endif()
if(NOT obsdoc MATCHES "fullkey_byte_converged")
  string(APPEND errors "OBSERVABILITY.md no longer documents the fullkey_byte_converged event\n")
endif()
if(NOT benchdoc MATCHES "bench_fullkey")
  string(APPEND errors "BENCHMARKS.md no longer documents bench_fullkey\n")
endif()

file(READ ${REPO}/tools/slm_cli.cpp clisrc)

# 8. The campaign-as-a-service story must stay documented, and CLI.md
#    must stay the ONE exit-code authority. SERVE.md has to cover the
#    daemon surface (the three verbs, the spool/results protocol, the
#    scheduling and preemption flags, the SLMCKPT1 resume mechanism,
#    and the slm.serve.* metric family); OBSERVABILITY.md must keep
#    that family and the preemption event in its catalogs; CLI.md must
#    enumerate every verb and every exit code; and no other doc may
#    carry its own copy of the exit-code table — that is exactly the
#    duplication CLI.md exists to end.
foreach(needed "slm submit" "slm serve" "slm status" "--spool" "--results"
        "--tenant" "--priority" "--queue-cap" "--max-queue" "--timeslice"
        "--max-slices" "--poll-ms" "--idle-polls"
        "SLMCKPT1" "serve_smoke" "serve.jsonl" "result.json")
  if(NOT servedoc MATCHES "${needed}")
    string(APPEND errors "SERVE.md no longer documents '${needed}'\n")
  endif()
endforeach()
if(NOT servedoc MATCHES "slm\\.serve\\.")
  string(APPEND errors "SERVE.md no longer documents the slm.serve.* metrics\n")
endif()
if(NOT obsdoc MATCHES "slm\\.serve\\.")
  string(APPEND errors "OBSERVABILITY.md no longer documents the slm.serve.* metrics\n")
endif()
if(NOT obsdoc MATCHES "job_preempted")
  string(APPEND errors "OBSERVABILITY.md no longer documents the job_preempted event\n")
endif()
foreach(verb gen check sta atpg attack capture analyze tvla submit serve
        status)
  if(NOT clidoc MATCHES "slm ${verb}")
    string(APPEND errors "CLI.md no longer documents the '${verb}' verb\n")
  endif()
endforeach()
foreach(code 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 64)
  if(NOT clidoc MATCHES "\\| ${code} \\|")
    string(APPEND errors "CLI.md exit-code table is missing code ${code}\n")
  endif()
endforeach()
set(dup_names "README.md" "docs/BENCHMARKS.md" "docs/OBSERVABILITY.md"
    "docs/ARCHITECTURE.md" "docs/FULLKEY.md" "docs/SERVE.md"
    "docs/STORE.md" "EXPERIMENTS.md")
set(dup_vars readme benchdoc obsdoc archdoc fullkeydoc servedoc storedoc
    experiments)
foreach(i RANGE 7)
  list(GET dup_names ${i} doc_name)
  list(GET dup_vars ${i} doc_var)
  if("${${doc_var}}" MATCHES "\\| *rc *\\| *meaning *\\|")
    string(APPEND errors "${doc_name} duplicates the exit-code table — docs/CLI.md is the single authority\n")
  endif()
endforeach()

# 9. The capture-once/replay-many story must stay documented: STORE.md
#    has to cover the replay surface (--store-out / --from-store, the
#    capture and tvla verbs, the SLMTRC1 wire format, the bench and its
#    replay_speedup JSON field, and the store_smoke drill);
#    OBSERVABILITY.md must keep the slm.store.* metric family and both
#    store events in its catalogs; and every store surface the docs
#    lean on must still exist in the sources.
foreach(needed "--store-out" "--from-store" "slm capture" "slm tvla"
        "SLMTRC1" "bench_store" "replay_speedup" "store_smoke"
        "exit code 13" "exit code 14")
  if(NOT storedoc MATCHES "${needed}")
    string(APPEND errors "STORE.md no longer documents '${needed}'\n")
  endif()
endforeach()
if(NOT storedoc MATCHES "slm\\.store\\.")
  string(APPEND errors "STORE.md no longer mentions the slm.store.* metrics\n")
endif()
foreach(metric "slm.store.traces_written" "slm.store.bytes_written"
        "slm.store.write_seconds" "slm.store.traces_replayed"
        "slm.store.replay_seconds")
  if(NOT obsdoc MATCHES "${metric}")
    string(APPEND errors "OBSERVABILITY.md no longer documents the ${metric} metric\n")
  endif()
endforeach()
foreach(ev store_write store_replay)
  if(NOT obsdoc MATCHES "${ev}")
    string(APPEND errors "OBSERVABILITY.md no longer documents the ${ev} event\n")
  endif()
endforeach()
foreach(surface "--store-out" "--from-store" "SLMTRC1")
  string(FIND "${clisrc}\n${metric_sources}" "${surface}" pos)
  if(pos EQUAL -1)
    string(APPEND errors "store surface '${surface}' documented in STORE.md is gone from the sources\n")
  endif()
endforeach()

# 10. The integer-exact fold engine and the fused one-pass replay must
#     stay documented: STORE.md has to cover the fused surface (the
#     analyze verb, --fused-tvla, replay_all, the analyze job kind, the
#     fused_replay_speedup JSON field, and the fold_ubsan drill);
#     BENCHMARKS.md has to keep the dispatch-level story (SLM_SIMD
#     spellings, the BM_ClassFold* fold table, fold_dispatch_test) and
#     the undefined sanitizer mode; CLI.md must list the analyze job
#     kind and the submit --store flag; and every fused surface the
#     docs lean on must still exist in the sources.
foreach(needed "slm analyze" "--fused-tvla" "replay_all"
        "fused_replay_speedup" "fold_ubsan" "\"kind\": \"analyze\"")
  if(NOT storedoc MATCHES "${needed}")
    string(APPEND errors "STORE.md no longer documents '${needed}'\n")
  endif()
endforeach()
foreach(needed "SLM_SIMD" "scalar" "sse2" "avx2" "BM_ClassFold"
        "fold_dispatch_test" "fused_replay_speedup" "undefined")
  if(NOT benchdoc MATCHES "${needed}")
    string(APPEND errors "BENCHMARKS.md no longer documents '${needed}'\n")
  endif()
endforeach()
foreach(needed "slm analyze" "--fused-tvla" "analyze" "--store ")
  if(NOT clidoc MATCHES "${needed}")
    string(APPEND errors "CLI.md no longer documents '${needed}'\n")
  endif()
endforeach()
foreach(surface "--fused-tvla" "replay_all" "cmd_analyze")
  string(FIND "${clisrc}\n${metric_sources}" "${surface}" pos)
  if(pos EQUAL -1)
    string(APPEND errors "fused-replay surface '${surface}' documented in STORE.md is gone from the sources\n")
  endif()
endforeach()
if(NOT EXISTS ${REPO}/tests/sca/fold_dispatch_test.cpp)
  string(APPEND errors "BENCHMARKS.md points at fold_dispatch_test but tests/sca/fold_dispatch_test.cpp is gone\n")
endif()
if(NOT EXISTS ${REPO}/tools/fold_ubsan.cmake)
  string(APPEND errors "STORE.md points at the fold_ubsan drill but tools/fold_ubsan.cmake is gone\n")
endif()
if(NOT EXISTS ${REPO}/tools/bench_report.cmake)
  string(APPEND errors "the bench_smoke_report ctest entry needs tools/bench_report.cmake, which is gone\n")
endif()

if(NOT errors STREQUAL "")
  message(FATAL_ERROR "stale documentation references:\n${errors}")
endif()
message(STATUS "docs check: every referenced bench binary, flag, knob, and metric exists")
