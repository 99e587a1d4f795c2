# one-reader lint: every SVSIM_* variable is read by the config module
# (src/common/config.*) and by nothing else, so each one has one parser
# and one precedence rule. Fails, listing the files, when any other C++
# source under src/, tools/, examples/ or bench/ mentions getenv.
# Driven from tests/CMakeLists.txt via:
#   cmake -DSOURCE_DIR=... -P one_reader_lint.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "one_reader_lint: missing -DSOURCE_DIR=...")
endif()

set(globs)
foreach(dir src tools examples bench)
  list(APPEND globs "${SOURCE_DIR}/${dir}/*.cpp" "${SOURCE_DIR}/${dir}/*.hpp")
endforeach()
file(GLOB_RECURSE files RELATIVE "${SOURCE_DIR}" ${globs})
list(SORT files)

set(offenders)
foreach(f IN LISTS files)
  if(f MATCHES "^src/common/config\\.(cpp|hpp)$")
    continue()
  endif()
  file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "getenv")
  if(hits)
    list(APPEND offenders "${f}")
  endif()
endforeach()

list(LENGTH files n_files)
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
          "one_reader_lint: getenv outside src/common/config.*; read the "
          "variable through svsim::Env instead:\n  ${listing}")
endif()
message(STATUS "one_reader_lint: ${n_files} files, one reader")
