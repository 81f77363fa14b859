# Runs the tools on rejected input and requires each exact exit status:
# 2 for a bad numeric flag (util/cli.h), 1 for fbedge_analyze input that
# holds no session. Then pins the runtime_ keys of two --json outputs.
# Invoked by ctest (tests/CMakeLists.txt) as
#   cmake -DMONITOR=... -DANALYZE=... -DBENCH=... -DWHATIF=... -DGEN=...
#         -DSCALE=... -DFIDELITY=... -DINGRESS=... -DWORK_DIR=...
#         -P cli_test.cmake
# Every base command line is valid and small, so a flag that is not
# rejected runs (and exits 0) instead of failing for another reason.
set(failures 0)

function(expect_exit code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "${code}")
    message(SEND_ERROR "expected exit ${code}, got '${rc}': ${ARGN}")
  endif()
endfunction()

foreach(flag
    "--threads;abc" "--threads;-3" "--threads;4x" "--threads;"
    "--batch-rows;0" "--batch-rows;-5" "--batch-rows;1.5"
    "--late-rate;7" "--late-rate;-0.1" "--late-rate;nan" "--dup-rate;1.01"
    "--late-max-delay;0" "--days;0" "--lateness;-1" "--fault-seed;x")
  expect_exit(2 ${MONITOR} 1 --days 1 ${flag})
endforeach()
expect_exit(2 ${MONITOR} 1x --days 1)

foreach(flag "--threads;abc" "--threads;-3" "--threads;2.5")
  expect_exit(2 ${BENCH} 1 ${flag})
endforeach()
expect_exit(2 ${BENCH} 0)
expect_exit(2 ${BENCH} 2groups)

foreach(flag "--threads;abc" "--threads;-3")
  expect_exit(2 ${ANALYZE} ${flag} ${WORK_DIR}/cli_test_missing.txt)
endforeach()

foreach(flag
    "--threads;abc" "--threads;-3" "--threads;2.5" "--days;0" "--days;x"
    "--workers;-1" "--workers;2x" "--attempt;-1" "--attempt;z"
    "--sweep-worker;1" "--sweep-worker;a/2" "--sweep-worker;2/2"
    "--sweep-worker;-1/2" "--sweep-worker;1/0" "--sweep-worker;1/2x"
    "--sweep-worker;/2" "--sweep-worker;1/")
  expect_exit(2 ${WHATIF} 1 --days 1 ${flag})
endforeach()
expect_exit(2 ${WHATIF} 0 --days 1)
expect_exit(2 ${WHATIF} 3x --days 1)

foreach(flag
    "--groups;0" "--groups;x" "--days;0" "--days;1.5" "--scale;-1"
    "--scale;abc" "--seed;-1" "--seed;12x" "--threads;-3" "--threads;abc")
  expect_exit(2 ${GEN} --groups 1 --days 1 --scale 0.01
              --out ${WORK_DIR}/cli_test_gen.txt ${flag})
endforeach()

foreach(flag
    "--days;0" "--workers;-1" "--workers;x" "--threads;-1" "--threads;2.5"
    "--worker-threads;-1" "--max-attempts;0" "--worker-crash-rate;2"
    "--worker-crash-rate;nan" "--fault-seed;x" "--sweep;1,x" "--sweep;1,,2"
    "--sweep;" "--shard-worker;1" "--shard-worker;2/2" "--shard-worker;a/2"
    "--shard-worker;-1/2" "--attempt;-1" "--attempt;z")
  expect_exit(2 ${SCALE} 1 --days 1 --workers 0
              --cache-dir ${WORK_DIR}/cli_test_scale ${flag})
endforeach()
expect_exit(2 ${SCALE} 0 --days 1 --workers 0)
expect_exit(2 ${SCALE} 3x --days 1 --workers 0)

foreach(arg "0" "abc" "5x" "-1")
  expect_exit(2 ${FIDELITY} ${arg})
endforeach()
expect_exit(2 ${FIDELITY} 10 20)
foreach(arg "0" "abc" "-5" "2.5")
  expect_exit(2 ${INGRESS} ${arg})
endforeach()
expect_exit(2 ${INGRESS} 10 20)

file(WRITE ${WORK_DIR}/cli_test_empty.txt "")
file(WRITE ${WORK_DIR}/cli_test_garbage.txt "not a sample\n1 2 3\n\n%%%\n")
expect_exit(1 ${ANALYZE} ${WORK_DIR}/cli_test_empty.txt)
expect_exit(1 ${ANALYZE} ${WORK_DIR}/cli_test_garbage.txt)

# --json carries every RunStats counter once under its runtime_ key
# (runtime/run_stats.h): each key the CI jobs read, and the fault counters.
file(REMOVE_RECURSE ${WORK_DIR}/cli_test_json_cache)
foreach(run
    "scale;${SCALE};1;--days;1;--workers;2;--cache-dir;${WORK_DIR}/cli_test_json_cache"
    "monitor;${MONITOR};1;--days;1")
  list(POP_FRONT run name)
  set(json_path ${WORK_DIR}/cli_test_${name}.json)
  file(REMOVE ${json_path})
  expect_exit(0 ${run} --json ${json_path})
  file(READ ${json_path} json)
  foreach(key
      runtime_simd_avx2 runtime_wall_seconds runtime_alloc_count
      runtime_rss_peak runtime_steals runtime_cache_hits runtime_cache_misses
      runtime_workers_spawned runtime_worker_failures runtime_worker_retries
      runtime_degraded_shards runtime_worker_rss_peak
      runtime_stream_open_windows_peak runtime_stream_watermark_advances
      runtime_lost_groups)
    string(REGEX MATCHALL "\"${key}\":" hits "${json}")
    list(LENGTH hits count)
    if(NOT count EQUAL 1)
      message(SEND_ERROR "${name} --json: key ${key} appears ${count} times")
    endif()
  endforeach()
endforeach()
