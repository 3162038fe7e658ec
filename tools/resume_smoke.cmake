# End-to-end kill/resume drill, run as a ctest entry (resume_smoke):
# the OBSERVABILITY.md walkthrough, mechanized. A TDC campaign is run
# uninterrupted, then re-run with snapshots and a deterministic kill
# (--halt-after -> rc 5), then resumed; the resumed run must print the
# exact same recovery line, and the JSONL event stream must close with
# a run_end manifest.
#
# Usage: cmake -DSLM=<slm binary> -DWORKDIR=<scratch dir> -P resume_smoke.cmake

set(common attack --circuit alu --mode tdc --traces 6000 --key-byte 3)
set(ckpt_dir ${WORKDIR}/resume_smoke_ckpt)
set(events ${WORKDIR}/resume_smoke_events.jsonl)
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
  # stderr included so refusal diagnostics (e.g. the rc 64 usage
  # error) can be asserted on too.
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# 1. Uninterrupted reference run (6000 TDC traces disclose the byte).
run_slm(ref_out 0 ${common})
string(REGEX MATCH "true 0x[0-9a-f]+ recovered 0x[0-9a-f]+[^\n]*" ref_line "${ref_out}")
if(ref_line STREQUAL "")
  message(FATAL_ERROR "reference run printed no recovery line:\n${ref_out}")
endif()

# 2. Same campaign, snapshotting, killed after the first checkpoint
#    past 2000 traces. rc 5 is the documented "halted, snapshot on
#    disk" exit code. --block 48 does not divide the 2000-trace halt or
#    the 6000-trace budget: the block loop must still land exactly on
#    the checkpoint (the reference run above used the default block, so
#    the final line comparison also proves block-size invariance).
run_slm(halt_out 5 ${common} --block 48
        --checkpoint-dir ${ckpt_dir} --halt-after 2000 --trace-out ${events})
if(NOT halt_out MATCHES "campaign halted after")
  message(FATAL_ERROR "halted run did not announce the snapshot:\n${halt_out}")
endif()
if(NOT EXISTS ${ckpt_dir}/campaign.ckpt)
  message(FATAL_ERROR "halt left no snapshot at ${ckpt_dir}/campaign.ckpt")
endif()

# 3. The retired RNG-contract flag is a usage error (rc 64), not a
#    silently ignored option.
run_slm(retired_out 64 ${common} --rng-contract v2 --resume ${ckpt_dir})
if(NOT retired_out MATCHES "unknown option --rng-contract")
  message(FATAL_ERROR "the retired --rng-contract flag was not refused:\n${retired_out}")
endif()

# 4. Resume and run to completion (still under the odd block size).
run_slm(res_out 0 ${common} --block 48 --resume ${ckpt_dir} --trace-out ${events})
if(NOT res_out MATCHES "resumed from trace")
  message(FATAL_ERROR "resumed run did not restore the snapshot:\n${res_out}")
endif()
string(REGEX MATCH "true 0x[0-9a-f]+ recovered 0x[0-9a-f]+[^\n]*" res_line "${res_out}")

# 5. Verify: identical recovery line (same true byte, same recovered
#    byte, same measurements-to-disclosure), and a closed event stream.
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
if(NOT event_stream MATCHES "\"ev\":\"run_end\"")
  message(FATAL_ERROR "event stream is missing the run_end manifest")
endif()

file(REMOVE_RECURSE ${ckpt_dir})
file(REMOVE ${events})
message(STATUS "resume smoke: kill at 2000/6000 under --block 48, bit-identical recovery after resume")
