# Distributed-fabric fault-injection drill, run as a ctest entry
# (fabric_smoke): the docs/DISTRIBUTED.md walkthrough, mechanized.
#
# Single-byte and --full-key campaigns are captured three ways — one
# full-range worker (the serial reference), an uninterrupted 4-shard
# coordinate run, and a 4-shard run with one worker killed mid-range —
# and all three merged snapshots must be byte-identical files, with
# byte-identical `slm merge --report` key rankings. The negative half
# proves every snapshot failure class lands on its documented exit
# code: 7 (format), 8 (campaign mismatch), 9 (range violation).
#
# Usage: cmake -DSLM=<slm binary> -DWORKDIR=<scratch dir> -P fabric_smoke.cmake

set(dir ${WORKDIR}/fabric_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

set(common --circuit alu --mode tdc --traces 6000 --key-byte 3)

function(run_slm out_var expect_rc)
  execute_process(COMMAND ${SLM} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "slm ${ARGN} -> rc=${rc} (expected ${expect_rc})\n${out}\n${err}")
  endif()
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

function(require_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} are not byte-identical")
  endif()
endfunction()

# --- 1. --dry-run pre-validation: every shard of one campaign must
#        resolve the identical config fingerprint (pure-JSON manifest).
run_slm(dry0 0 attack ${common} --shard 0/4 --dry-run)
run_slm(dry3 0 attack ${common} --shard 3/4 --dry-run)
if(NOT dry0 MATCHES "^{.*\"fingerprint\":([0-9]+).*}")
  message(FATAL_ERROR "--dry-run did not print a JSON manifest:\n${dry0}")
endif()
set(fp0 ${CMAKE_MATCH_1})
string(REGEX MATCH "\"fingerprint\":([0-9]+)" _ "${dry3}")
if(NOT fp0 STREQUAL ${CMAKE_MATCH_1})
  message(FATAL_ERROR "shard manifests disagree on the config fingerprint:\n${dry0}\n${dry3}")
endif()
# A different campaign must fingerprint differently (what merge rc 8 keys on).
run_slm(dry_other 0 attack ${common} --shard 0/4 --dry-run --key-byte 5)
string(REGEX MATCH "\"fingerprint\":([0-9]+)" _ "${dry_other}")
if(fp0 STREQUAL ${CMAKE_MATCH_1})
  message(FATAL_ERROR "different campaigns produced the same fingerprint")
endif()

# --- 2. Serial reference: one worker over the whole range, plus the
#        serial engine's own recovery line for cross-checking.
run_slm(ref_out 0 attack ${common})
string(REGEX MATCH "recovered 0x[0-9a-f]+" ref_recovered "${ref_out}")
run_slm(whole_out 0 attack ${common} --snapshot-out ${dir}/all.snap)
run_slm(report_all 0 merge ${dir}/all.snap --report)
if(NOT report_all MATCHES "${ref_recovered}")
  message(FATAL_ERROR "merge --report disagrees with the serial engine:\n"
                      "  engine: ${ref_recovered}\n  report:\n${report_all}")
endif()

# --- 3. Uninterrupted 4-shard coordinate run == serial reference.
run_slm(coord_out 0 coordinate ${common} --shards 4
        --work-dir ${dir}/coord --trace-out ${dir}/coord.jsonl)
require_identical(${dir}/coord/merged.snap ${dir}/all.snap
                  "uninterrupted 4-shard merge")

# --- 4. Kill-and-reissue: shard 1 dies 500 traces into its range; the
#        coordinator must salvage the prefix, reissue exactly the
#        missing range, and still merge to the byte-identical snapshot.
run_slm(kill_out 0 coordinate ${common} --shards 4
        --snapshot-every 400 --kill-shard 1 --kill-after 500
        --work-dir ${dir}/kill --trace-out ${dir}/kill.jsonl)
require_identical(${dir}/kill/merged.snap ${dir}/all.snap
                  "kill-and-reissue merge")
file(READ ${dir}/kill.jsonl kill_events)
if(NOT kill_events MATCHES "\"ev\":\"fabric_reissue\"")
  message(FATAL_ERROR "kill run emitted no fabric_reissue event")
endif()
if(NOT kill_events MATCHES "\"ev\":\"fabric_worker_exit\",[^\n]*\"rc\":5")
  message(FATAL_ERROR "killed worker's rc 5 exit was not recorded")
endif()
if(NOT kill_out MATCHES "1 range\\(s\\) reissued")
  message(FATAL_ERROR "coordinator did not report the reissue:\n${kill_out}")
endif()
# The salvaged worker stream shows the fabric events end-to-end.
file(READ ${dir}/kill/shard_r0_1.jsonl shard_events)
foreach(ev fabric_worker_start fabric_snapshot halt)
  if(NOT shard_events MATCHES "\"ev\":\"${ev}\"")
    message(FATAL_ERROR "killed worker stream is missing the ${ev} event")
  endif()
endforeach()

# --- 5. Final key ranking: byte-identical report across all three runs.
run_slm(report_coord 0 merge ${dir}/coord/merged.snap --report)
run_slm(report_kill 0 merge ${dir}/kill/merged.snap --report)
if(NOT report_all STREQUAL report_coord)
  message(FATAL_ERROR "uninterrupted shard report diverged:\n${report_all}\n---\n${report_coord}")
endif()
if(NOT report_all STREQUAL report_kill)
  message(FATAL_ERROR "kill-and-reissue report diverged:\n${report_all}\n---\n${report_kill}")
endif()

# --- 6. Negative paths land on their documented exit codes.
# rc 7: missing file, and a file that is not an SLMSNAP1 snapshot.
run_slm(miss_out 7 merge ${dir}/absent.snap)
file(WRITE ${dir}/garbage.snap "not a snapshot at all........")
run_slm(garbage_out 7 merge ${dir}/garbage.snap)
if(NOT garbage_out MATCHES "bad magic")
  message(FATAL_ERROR "garbage file not rejected as bad magic:\n${garbage_out}")
endif()
# rc 8: a shard of a DIFFERENT campaign (other trace budget) refuses to
# merge with ours — the fingerprint mismatch path.
run_slm(alien_out 0 attack --circuit alu --mode tdc --traces 5000
        --key-byte 3 --range 0:1000
        --snapshot-out ${dir}/alien.snap)
run_slm(mismatch_out 8 merge ${dir}/all.snap ${dir}/alien.snap)
if(NOT mismatch_out MATCHES "different trace budget")
  message(FATAL_ERROR "mismatch error does not name the field:\n${mismatch_out}")
endif()
# rc 9: the same snapshot twice is an overlap (a silent double-count
# otherwise), and --report on gapped coverage must refuse.
run_slm(overlap_out 9 merge ${dir}/all.snap ${dir}/all.snap)
if(NOT overlap_out MATCHES "double-count")
  message(FATAL_ERROR "overlap error does not explain the risk:\n${overlap_out}")
endif()
run_slm(shard0_out 0 attack ${common} --shard 0/4
        --snapshot-out ${dir}/s0.snap)
run_slm(gap_out 9 merge ${dir}/s0.snap --report)
if(NOT gap_out MATCHES "coverage incomplete")
  message(FATAL_ERROR "gapped --report did not refuse:\n${gap_out}")
endif()

# --- 7. The same battery on the fused --full-key engine (3000 traces):
#        serial reference worker vs kill-and-reissue coordinate run.
set(fk --circuit alu --mode tdc --traces 3000 --full-key)
run_slm(fk_whole 0 attack ${fk} --snapshot-out ${dir}/fk_all.snap)
run_slm(fk_kill 0 coordinate ${fk} --shards 4
        --kill-shard 2 --kill-after 300
        --work-dir ${dir}/fk_kill --trace-out ${dir}/fk_kill.jsonl)
require_identical(${dir}/fk_kill/merged.snap ${dir}/fk_all.snap
                  "full-key kill-and-reissue merge")
run_slm(fk_report_all 0 merge ${dir}/fk_all.snap --report)
run_slm(fk_report_kill 0 merge ${dir}/fk_kill/merged.snap --report)
if(NOT fk_report_all STREQUAL fk_report_kill)
  message(FATAL_ERROR "full-key kill report diverged:\n${fk_report_all}\n---\n${fk_report_kill}")
endif()
if(NOT fk_report_all MATCHES "master key:")
  message(FATAL_ERROR "full-key report has no master-key line:\n${fk_report_all}")
endif()
# Full-key and single-byte snapshots must never merge (rc 8).
run_slm(fk_mix 8 merge ${dir}/fk_all.snap ${dir}/s0.snap)

file(REMOVE_RECURSE ${dir})
message(STATUS "fabric smoke: 4-shard kill-and-reissue byte-identical to the serial engine (single-byte and full-key), exit codes 7/8/9 verified")
