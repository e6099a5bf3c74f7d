# Smoke-check one example binary: it must exit 0, print something, and
# print byte-identical stdout when run a second time (every example is
# deterministic). Invoked by the example_* ctest entries (see
# CMakeLists.txt) as
#   cmake -DEXE=<binary> -P run_example_smoke.cmake
foreach(pass IN ITEMS 1 2)
  execute_process(COMMAND ${EXE}
    OUTPUT_VARIABLE example_stdout_${pass}
    RESULT_VARIABLE example_rc)
  if(NOT example_rc EQUAL 0)
    message(FATAL_ERROR "example exited with '${example_rc}' (run ${pass})")
  endif()
endforeach()
string(STRIP "${example_stdout_1}" example_stripped)
if(example_stripped STREQUAL "")
  message(FATAL_ERROR "example produced empty stdout")
endif()
if(NOT example_stdout_1 STREQUAL example_stdout_2)
  message(FATAL_ERROR "example stdout differs between two runs\n"
    "--- run 1 ---\n${example_stdout_1}\n--- run 2 ---\n${example_stdout_2}")
endif()
message("${example_stdout_1}")
