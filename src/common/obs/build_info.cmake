# Build step that stamps the git SHA into build_info.cpp (see
# src/common/CMakeLists.txt):
#
#   cmake -DGIT_EXECUTABLE=<git or empty> -DSOURCE_DIR=<work tree>
#         -DTEMPLATE=<configured build_info.cpp.in> -DOUTPUT=<build_info.cpp>
#         -P build_info.cmake
#
# configure_file leaves OUTPUT untouched when its content would not
# change, so a build of an unchanged tree recompiles nothing.
set(LOGDIVER_GIT_SHA "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} rev-parse HEAD
    OUTPUT_VARIABLE _sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE _rc)
  if(_rc EQUAL 0)
    set(LOGDIVER_GIT_SHA "${_sha}")
    execute_process(
      COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} diff --quiet HEAD
      RESULT_VARIABLE _dirty
      ERROR_QUIET)
    if(NOT _dirty EQUAL 0)
      string(APPEND LOGDIVER_GIT_SHA "-dirty")
    endif()
  endif()
endif()
configure_file(${TEMPLATE} ${OUTPUT} @ONLY)
