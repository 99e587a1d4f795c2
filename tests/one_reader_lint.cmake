# one-home lint: two concepts that must each live in one place.
#
# 1. One reader: every SVSIM_* variable is read by the config module
#    (src/common/config.*) and by nothing else, so each one has one
#    parser and one precedence rule. Any other file that mentions getenv
#    fails.
# 2. One home for vector code: <immintrin.h>, the _mm* intrinsics, the
#    __m*/__mmask* vector types and the __AVX* guards appear only in the
#    lane policies (src/core/kernels/lanes.hpp); every other kernel runs
#    through them at a resolved lane level. The one exception is
#    max_simd_level() in src/common/config.cpp, whose __AVX* guards name
#    the widest level the build carries.
#
# Both rules scan the C++ sources under src/, tools/, examples/ and
# bench/ and fail listing the offending files. Driven from
# tests/CMakeLists.txt via:
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

set(vector_code "immintrin|_mm[0-9]*_|__m[0-9]|__mmask")
set(readers)
set(vector_files)
foreach(f IN LISTS files)
  if(NOT f MATCHES "^src/common/config\\.(cpp|hpp)$")
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "getenv")
    if(hits)
      list(APPEND readers "${f}")
    endif()
  endif()
  if(f STREQUAL "src/core/kernels/lanes.hpp")
    continue()
  elseif(f STREQUAL "src/common/config.cpp")
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "${vector_code}")
  else()
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "${vector_code}|__AVX")
  endif()
  if(hits)
    list(APPEND vector_files "${f}")
  endif()
endforeach()

set(failures "")
if(readers)
  list(JOIN readers "\n  " listing)
  string(APPEND failures
         "getenv outside src/common/config.* (read the variable through "
         "svsim::Env instead):\n  ${listing}\n")
endif()
if(vector_files)
  list(JOIN vector_files "\n  " listing)
  string(APPEND failures
         "vector intrinsics or __AVX guards outside "
         "src/core/kernels/lanes.hpp (write the loop over a lane policy "
         "instead):\n  ${listing}\n")
endif()
list(LENGTH files n_files)
if(failures)
  message(FATAL_ERROR "one_reader_lint: ${failures}")
endif()
message(STATUS "one_reader_lint: ${n_files} files, one reader, one home "
               "for vector code")
