# Layering guard for the substrate: a file under src/common may include
# other common/ headers and linalg/matrix.h, and nothing else from the
# project. The one named exception, report.cc -> core/pipeline.h, stays
# until the discovery-report codec moves into core/.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/common_layering.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}/common")
  message(FATAL_ERROR "common_layering: SRC_DIR must name the src/ tree")
endif()
file(GLOB_RECURSE files "${SRC_DIR}/common/*.h" "${SRC_DIR}/common/*.cc")
set(violations "")
foreach(file IN LISTS files)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${file}")
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]*)\".*" "\\1"
           header "${line}")
    if(header MATCHES "^common/" OR header STREQUAL "linalg/matrix.h")
      continue()
    endif()
    if(rel STREQUAL "common/report.cc" AND header STREQUAL "core/pipeline.h")
      continue()
    endif()
    list(APPEND violations "  ${rel} includes \"${header}\"")
  endforeach()
endforeach()
if(violations)
  list(JOIN violations "\n" text)
  message(FATAL_ERROR "src/common includes headers above the substrate:\n"
                      "${text}")
endif()
list(LENGTH files count)
message(STATUS "common_layering: ${count} files checked")
