# Runs the tools on rejected input and requires each exact exit status:
# 2 for a bad numeric flag (util/cli.h), 1 for fbedge_analyze input that
# holds no session. Invoked by ctest (tests/CMakeLists.txt) as
#   cmake -DMONITOR=... -DANALYZE=... -DBENCH=... -DWHATIF=... -DWORK_DIR=...
#         -P cli_test.cmake
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

file(WRITE ${WORK_DIR}/cli_test_empty.txt "")
file(WRITE ${WORK_DIR}/cli_test_garbage.txt "not a sample\n1 2 3\n\n%%%\n")
expect_exit(1 ${ANALYZE} ${WORK_DIR}/cli_test_empty.txt)
expect_exit(1 ${ANALYZE} ${WORK_DIR}/cli_test_garbage.txt)
