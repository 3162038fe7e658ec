# Capture-once/replay-many drill, run as a ctest entry (store_smoke):
# the docs/STORE.md walkthrough, mechanized. A TDC campaign is captured
# into an SLMTRC1 store (`slm capture`), then replayed (`slm attack
# --from-store`) — the replay must print the byte-identical recovery
# line. Then the refusal battery: a corrupted store and a truncated
# store must exit 13 (StoreFormatError), and replaying under a
# different campaign configuration must exit 14 (StoreMismatch).
# Finally the same round trip for `slm tvla` and `--full-key`.
#
# Usage: cmake -DSLM=<slm binary> -DWORKDIR=<scratch dir> -P store_smoke.cmake

set(common --circuit alu --mode tdc --traces 6000 --key-byte 3)
set(store ${WORKDIR}/store_smoke.trc)
set(bad_store ${WORKDIR}/store_smoke_bad.trc)
set(short_store ${WORKDIR}/store_smoke_short.trc)
set(tvla_store ${WORKDIR}/store_smoke_tvla.trc)
set(fk_store ${WORKDIR}/store_smoke_fk.trc)
file(REMOVE ${store} ${bad_store} ${short_store} ${tvla_store} ${fk_store})

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

# 1. Capture: the campaign runs AND persists its traces (6000 TDC
#    traces disclose the byte, so the capture itself exits 0).
run_slm(cap_out 0 capture --store-out ${store} ${common})
string(REGEX MATCH "true 0x[0-9a-f]+ recovered 0x[0-9a-f]+[^\n]*" cap_line "${cap_out}")
if(cap_line STREQUAL "")
  message(FATAL_ERROR "capture printed no recovery line:\n${cap_out}")
endif()
if(NOT EXISTS ${store})
  message(FATAL_ERROR "capture left no store at ${store}")
endif()

# 2. Replay at fold speed: the recovery line (true byte, recovered
#    byte, measurements-to-disclosure) must be byte-identical to the
#    live capture's — the partition-invariance contract, end to end.
run_slm(rep_out 0 attack --from-store ${store} ${common})
string(REGEX MATCH "true 0x[0-9a-f]+ recovered 0x[0-9a-f]+[^\n]*" rep_line "${rep_out}")
if(NOT cap_line STREQUAL rep_line)
  message(FATAL_ERROR "replay diverged from the live capture:\n"
                      "  live:   ${cap_line}\n  replay: ${rep_line}")
endif()

# 3. Fingerprint mismatch: the same store replayed for a different key
#    byte resolves a different campaign (seed, window, config hash) and
#    must be refused with the documented exit code 14.
run_slm(mismatch_out 14 attack --from-store ${store} --circuit alu
        --mode tdc --key-byte 5)
if(NOT mismatch_out MATCHES "fingerprint mismatch")
  message(FATAL_ERROR "mismatched replay did not explain the refusal:\n${mismatch_out}")
endif()

# 4. Corruption: flip two bytes deep in the readings column (dd patches
#    in place); the chunk CRC must catch it -> exit code 13.
configure_file(${store} ${bad_store} COPYONLY)
file(WRITE ${WORKDIR}/store_smoke_patch.bin "ZQ")
execute_process(COMMAND dd if=${WORKDIR}/store_smoke_patch.bin
                        of=${bad_store} bs=1 seek=5000 count=2 conv=notrunc
                RESULT_VARIABLE dd_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "dd corruption patch failed (rc=${dd_rc})")
endif()
run_slm(corrupt_out 13 attack --from-store ${bad_store} ${common})
if(NOT corrupt_out MATCHES "corrupt")
  message(FATAL_ERROR "corrupted replay did not name the corruption:\n${corrupt_out}")
endif()

# 5. Truncation: a store cut short mid-column is structurally unusable
#    -> exit code 13 as well.
execute_process(COMMAND dd if=${store} of=${short_store} bs=1024 count=40
                RESULT_VARIABLE dd_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "dd truncation failed (rc=${dd_rc})")
endif()
run_slm(short_out 13 attack --from-store ${short_store} ${common})

# 6. TVLA round trip: identical max |t| verdict line from capture and
#    replay (the t statistics are streamed in stored order, so the
#    online moments match bit for bit).
run_slm(tvla_cap_out 0 tvla --mode tdc --traces 400
        --store-out ${tvla_store})
string(REGEX MATCH "max \\|t\\|[^\n]*" tvla_cap_line "${tvla_cap_out}")
run_slm(tvla_rep_out 0 tvla --mode tdc
        --from-store ${tvla_store})
string(REGEX MATCH "max \\|t\\|[^\n]*" tvla_rep_line "${tvla_rep_out}")
if(NOT tvla_cap_line STREQUAL tvla_rep_line)
  message(FATAL_ERROR "tvla replay diverged:\n"
                      "  live:   ${tvla_cap_line}\n  replay: ${tvla_rep_line}")
endif()

# 7. Full-key round trip: the fused capture's master-key line must
#    replay byte-identically (early-exit decisions included — the
#    replay re-evaluates the same margin/stability gates at the same
#    checkpoints).
run_slm(fk_cap_out 0 capture --store-out ${fk_store} --full-key
        --circuit alu --mode tdc --traces 2500)
string(REGEX MATCH "master key:[^\n]*" fk_cap_line "${fk_cap_out}")
if(NOT fk_cap_line MATCHES "RECOVERED")
  message(FATAL_ERROR "full-key capture did not recover the key:\n${fk_cap_out}")
endif()
run_slm(fk_rep_out 0 attack --full-key --from-store ${fk_store}
        --circuit alu --mode tdc)
string(REGEX MATCH "master key:[^\n]*" fk_rep_line "${fk_rep_out}")
if(NOT fk_cap_line STREQUAL fk_rep_line)
  message(FATAL_ERROR "full-key replay diverged:\n"
                      "  live:   ${fk_cap_line}\n  replay: ${fk_rep_line}")
endif()

file(REMOVE ${store} ${bad_store} ${short_store} ${tvla_store} ${fk_store}
     ${WORKDIR}/store_smoke_patch.bin)
message(STATUS "store smoke: capture/replay byte-identical (attack, tvla, full-key); corrupt -> 13, mismatch -> 14")
