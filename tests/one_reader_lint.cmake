# one-home lint: four concepts that must each live in one place.
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
# 3. One home for JSON number rendering: the %.17g and %.12g formats, the
#    "null" literal and the append_u64 / append_double / json_double
#    helper names appear only in src/obs/jsonlite.hpp, whose Writer holds
#    the one number rule (integers as integers, finite doubles as %.17g,
#    non-finite as null); every document is written through it. The one
#    exception is %.17g in src/obs/progress.cpp, for the signal-safe
#    progress renderer, which may not allocate.
# 4. One home for gate footprints: the kernel list's pattern × body
#    (kernels::footprint in src/core/kernels/gates.hpp) says what each
#    unitary op's kernel touches, reads and computes. The cost and progress
#    code under src/obs/ and src/machine/, and the batched combining pass
#    in src/core/kernels/batched.hpp, name no unitary op in a case label:
#    only M, MA, RESET, ID and BARRIER, whose kernels are protocols or
#    no-ops rather than pattern × body.
#
# All four rules scan the C++ sources under src/, tools/, examples/ and
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
set(json_helpers "%\\.12g|\"null\"|append_u64|append_double|json_double")
set(readers)
set(vector_files)
set(json_files)
set(op_case_files)
foreach(f IN LISTS files)
  set(hits)
  if(f MATCHES "^src/(obs|machine)/" OR
     f STREQUAL "src/core/kernels/batched.hpp")
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "case OP::")
    foreach(line IN LISTS hits)
      string(REGEX MATCHALL "case OP::[A-Za-z0-9_]+" labels "${line}")
      foreach(label IN LISTS labels)
        if(NOT label MATCHES "^case OP::(M|MA|RESET|ID|BARRIER)$")
          list(APPEND op_case_files "${f}")
        endif()
      endforeach()
    endforeach()
    set(hits)
  endif()
  if(f STREQUAL "src/obs/progress.cpp")
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "${json_helpers}")
  elseif(NOT f STREQUAL "src/obs/jsonlite.hpp")
    file(STRINGS "${SOURCE_DIR}/${f}" hits REGEX "%\\.17g|${json_helpers}")
  endif()
  if(hits)
    list(APPEND json_files "${f}")
  endif()
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
if(json_files)
  list(JOIN json_files "\n  " listing)
  string(APPEND failures
         "JSON number rendering outside src/obs/jsonlite.hpp (write the "
         "document through jsonlite::Writer instead):\n  ${listing}\n")
endif()
if(op_case_files)
  list(REMOVE_DUPLICATES op_case_files)
  list(JOIN op_case_files "\n  " listing)
  string(APPEND failures
         "a unitary op in a case label of cost, progress or combining code "
         "(read its footprint off kernels::footprint instead):\n  "
         "${listing}\n")
endif()
list(LENGTH files n_files)
if(failures)
  message(FATAL_ERROR "one_reader_lint: ${failures}")
endif()
message(STATUS "one_reader_lint: ${n_files} files, one reader, one home "
               "for vector code, one JSON number rule, one gate footprint")
