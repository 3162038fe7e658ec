# End-to-end kill/resume drill for the fused full-key engine, run as a
# ctest entry (fullkey_resume_smoke): the docs/FULLKEY.md walkthrough,
# mechanized. A fused full-key attack is run uninterrupted, then re-run
# with snapshots and a deterministic kill (--halt-after -> rc 5), then
# resumed; the resumed run must print the exact same per-byte table and
# master-key line, and the JSONL event stream must close with a run_end
# manifest. A single-byte resume of the full-key snapshot must be
# refused, and the retired --fullkey-mode flag is a usage error.
#
# Usage: cmake -DSLM=<slm binary> -DWORKDIR=<scratch dir> -P fullkey_resume_smoke.cmake

set(common attack --circuit alu --mode tdc --traces 4000 --full-key
    --threads 2)
set(ckpt_dir ${WORKDIR}/fullkey_resume_smoke_ckpt)
set(events ${WORKDIR}/fullkey_resume_smoke_events.jsonl)
file(REMOVE_RECURSE ${ckpt_dir})
file(REMOVE ${events})

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

# 1. Uninterrupted reference run (4000 TDC traces recover the full key
#    from one shared capture pass).
run_slm(ref_out 0 ${common})
string(REGEX MATCH "master key: +true [0-9a-f]+ recovered [0-9a-f]+[^\n]*" ref_line "${ref_out}")
if(ref_line STREQUAL "")
  message(FATAL_ERROR "reference run printed no master-key line:\n${ref_out}")
endif()
if(NOT ref_line MATCHES "RECOVERED")
  message(FATAL_ERROR "reference run did not recover the key:\n${ref_out}")
endif()

# 2. Same campaign, snapshotting, killed after the first checkpoint past
#    1000 traces (rc 5, snapshot on disk). --block 48 does not divide
#    the halt point or the budget; the final comparison against the
#    default-block reference run also proves block-size invariance on
#    the full-key snapshot format.
run_slm(halt_out 5 ${common} --block 48
        --checkpoint-dir ${ckpt_dir} --halt-after 1000 --trace-out ${events})
if(NOT halt_out MATCHES "campaign halted after")
  message(FATAL_ERROR "halted run did not announce the snapshot:\n${halt_out}")
endif()
if(NOT EXISTS ${ckpt_dir}/campaign.ckpt)
  message(FATAL_ERROR "halt left no snapshot at ${ckpt_dir}/campaign.ckpt")
endif()

# 3. The retired full-key mode flag is a usage error (rc 64): there is
#    one full-key engine.
run_slm(retired_out 64 ${common} --fullkey-mode fused --resume ${ckpt_dir})
if(NOT retired_out MATCHES "unknown option --fullkey-mode")
  message(FATAL_ERROR "the retired --fullkey-mode flag was not refused:\n${retired_out}")
endif()

# 4. A single-byte resume of a full-key snapshot must be refused too
#    (generic error, rc 1): the snapshot stamps its full-key flag.
run_slm(single_out 1 attack --circuit alu --mode tdc --traces 4000
        --key-byte 3 --threads 2 --resume ${ckpt_dir})
if(NOT single_out MATCHES "full-key")
  message(FATAL_ERROR "single-byte resume of a full-key snapshot was not refused:\n${single_out}")
endif()

# 5. Resume and run to completion (still under the odd block size).
run_slm(res_out 0 ${common} --block 48 --resume ${ckpt_dir} --trace-out ${events})
if(NOT res_out MATCHES "resumed from trace")
  message(FATAL_ERROR "resumed run did not restore the snapshot:\n${res_out}")
endif()
string(REGEX MATCH "master key: +true [0-9a-f]+ recovered [0-9a-f]+[^\n]*" res_line "${res_out}")

# 6. Verify: identical master-key line and a closed event stream with
#    the full-key checkpoint/convergence events.
if(NOT ref_line STREQUAL res_line)
  message(FATAL_ERROR "resume diverged from the uninterrupted run:\n"
                      "  reference: ${ref_line}\n  resumed:   ${res_line}")
endif()
file(READ ${events} event_stream)
if(NOT event_stream MATCHES "\"ev\":\"halt\"")
  message(FATAL_ERROR "event stream is missing the halt event")
endif()
if(NOT event_stream MATCHES "\"ev\":\"resume\"")
  message(FATAL_ERROR "event stream is missing the resume event")
endif()
if(NOT event_stream MATCHES "\"ev\":\"fullkey_checkpoint\"")
  message(FATAL_ERROR "event stream is missing fullkey_checkpoint events")
endif()
if(NOT event_stream MATCHES "\"ev\":\"run_end\"")
  message(FATAL_ERROR "event stream is missing the run_end manifest")
endif()

file(REMOVE_RECURSE ${ckpt_dir})
file(REMOVE ${events})
message(STATUS "fullkey resume smoke: kill at 1000/4000 under --block 48, bit-identical full-key recovery after resume")
