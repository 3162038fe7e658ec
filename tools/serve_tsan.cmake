# ThreadSanitizer drill for the serve daemon, run as a ctest entry
# (serve_tsan). On the shared scratch TSan build of the CLI
# (sanitizer_build.cmake) it drains a seven-job, four-tenant spool through
# `slm serve` with a 1 ms spool poll: the watcher thread hammers the
# shared FairShareScheduler (depth checks, admissions) while the serve
# loop concurrently pops, requeues, and charges timeslices and the
# report mutex collects counters — the surface serve_test only
# exercises sequentially. The benign-HW job is preempted at least
# twice, so its later slices take the daemon's set-up memo lock and
# reuse the sensor pre-pass. Any data race aborts the process
# (halt_on_error=1, exitcode=66) and fails the test. Skips gracefully
# when the toolchain lacks TSan.
#
# Usage: cmake -DREPO=<source root> -DWORKDIR=<scratch dir>
#        -DCXX=<C++ compiler> -P serve_tsan.cmake

include(${CMAKE_CURRENT_LIST_DIR}/sanitizer_build.cmake)
sanitizer_build(tsan_build thread tsan_tree slm)
if(NOT tsan_tree)
  message(STATUS "serve tsan: toolchain cannot link -fsanitize=thread, skipping")
  return()
endif()
set(slm ${tsan_tree}/tools/slm)

set(scratch ${WORKDIR}/serve_tsan)
file(MAKE_DIRECTORY ${scratch})

set(spool ${scratch}/spool)
set(results ${scratch}/results)
file(REMOVE_RECURSE ${spool} ${results})

# Six short jobs across three tenants, two per tenant, so the fair-share
# argmin scan, the requeue path, and the charge map all stay busy.
foreach(pair "alice;3" "bob;5" "carol;7" "alice;1" "bob;9" "carol;11")
  list(GET pair 0 tenant)
  list(GET pair 1 byte)
  execute_process(COMMAND ${slm} submit --spool ${spool} --tenant ${tenant}
                          --kind attack --mode tdc --traces 600
                          --key-byte ${byte}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tsan submit -> rc=${rc}\n${out}\n${err}")
  endif()
endforeach()
# A benign-HW job: checkpoints at 200, 500 and 1000 traces lie past
# each 200-trace timeslice, so it is preempted up to three times.
set(hw_job job_0006_dave)
execute_process(COMMAND ${slm} submit --spool ${spool} --tenant dave
                        --kind attack --mode hw --traces 1200 --key-byte 3
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan submit -> rc=${rc}\n${out}\n${err}")
endif()

# --poll-ms 1 keeps the watcher thread scanning (and taking the
# scheduler mutex) concurrently with every slice the serve loop runs;
# --timeslice 200 forces preempt/requeue traffic on the same queue.
execute_process(COMMAND ${slm} serve --spool ${spool} --results ${results}
                        --threads 2 --timeslice 200 --poll-ms 1
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "tsan serve run -> rc=${rc} (rc 66 means ThreadSanitizer "
          "reported a data race)\n${out}\n${err}")
endif()
foreach(job job_0000_alice job_0001_bob job_0002_carol
        job_0003_alice job_0004_bob job_0005_carol ${hw_job})
  if(NOT EXISTS ${results}/${job}/result.json)
    message(FATAL_ERROR "tsan serve run left no result for ${job}")
  endif()
endforeach()
file(STRINGS ${results}/serve.jsonl preempted
     REGEX "\"ev\":\"job_preempted\".*\"job\":\"${hw_job}\"")
list(LENGTH preempted n_preempted)
if(n_preempted LESS 2)
  message(FATAL_ERROR "tsan: ${hw_job} was preempted ${n_preempted} time(s), want >= 2")
endif()
file(STRINGS ${results}/${hw_job}/events.jsonl reused
     REGEX "\"prepass\":\"reused\"")
list(LENGTH reused n_reused)
if(n_reused LESS n_preempted)
  message(FATAL_ERROR "tsan: ${hw_job} reused its pre-pass on ${n_reused} of ${n_preempted} resumed slices")
endif()

file(REMOVE_RECURSE ${spool} ${results})
message(STATUS "serve tsan: spool watcher vs serve loop is race-clean across 7 jobs / 4 tenants, set-up memo reuse included")
