# Checks that a freshly built logdiver_cli stamps its manifests with the
# work tree's current commit (the build step re-reads it on every build):
#
#   cmake -DCLI=<logdiver_cli> -DGIT_EXECUTABLE=<git> -DSOURCE_DIR=<tree>
#         -DWORK_DIR=<scratch dir> -P manifest_git_sha.cmake
#
# Passes without checking when SOURCE_DIR is not a git work tree.
execute_process(
  COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} rev-parse HEAD
  OUTPUT_VARIABLE head
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(STATUS "not a git work tree; nothing to compare")
  return()
endif()
file(REMOVE_RECURSE ${WORK_DIR})
execute_process(
  COMMAND ${CLI} generate ${WORK_DIR}/bundle --small --apps 20 --seed 1
          --manifest-out ${WORK_DIR}/manifest.json
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "logdiver_cli generate exited ${rc}")
endif()
file(READ ${WORK_DIR}/manifest.json manifest)
file(REMOVE_RECURSE ${WORK_DIR})
if(NOT manifest MATCHES "\"git_sha\": \"([0-9a-f]+)(-dirty)?\"")
  message(FATAL_ERROR "manifest has no git_sha of a commit")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL head)
  message(FATAL_ERROR
          "manifest git_sha ${CMAKE_MATCH_1} is not HEAD ${head}")
endif()
