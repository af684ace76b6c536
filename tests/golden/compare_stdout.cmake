# compare_stdout.cmake — run one program and compare its stdout byte for
# byte with a golden file.
#
#   cmake -DEXE=<program> [-DARGS="a b"] -DGOLDEN=<file> -DOUT=<file> \
#         -P compare_stdout.cmake
#
# Fails on a non-zero exit status or on any differing byte; the program's
# stdout stays in OUT for a diff against GOLDEN.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args} OUTPUT_FILE ${OUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXE} ${ARGS} differs from ${GOLDEN}; it is in ${OUT}")
endif()
