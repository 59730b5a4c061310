# Sanitizer wiring for the correctness harness (docs/TESTING.md).
#
# EVOFORECAST_SANITIZE selects compiler sanitizers for the whole build:
#
#   -DEVOFORECAST_SANITIZE=address,undefined   # ASan + UBSan (the CI pairing)
#   -DEVOFORECAST_SANITIZE=thread              # TSan (exclusive with ASan)
#
# Flags are applied globally (add_compile_options / add_link_options) so every
# library, test, bench and fuzz harness is instrumented — a partially
# sanitized binary silently misses errors at the instrumentation boundary.
# -fno-sanitize-recover=all turns every finding into a hard failure, so a CI
# job cannot go green while printing sanitizer reports. The option composes
# with the existing EVOFORECAST_* options (OBS on/off, WERROR, FUZZ).

set(EVOFORECAST_SANITIZE "" CACHE STRING
    "Sanitizers to build with: address, undefined, thread. Combine address and undefined with ',' or ';'; thread is exclusive.")

set(EVOFORECAST_SANITIZE_ACTIVE "")

if(EVOFORECAST_SANITIZE)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    message(FATAL_ERROR
      "EVOFORECAST_SANITIZE requires GCC or Clang (got ${CMAKE_CXX_COMPILER_ID})")
  endif()

  string(REPLACE "," ";" _ef_san_request "${EVOFORECAST_SANITIZE}")
  set(_ef_san_list "")
  foreach(_ef_san IN LISTS _ef_san_request)
    string(STRIP "${_ef_san}" _ef_san)
    string(TOLOWER "${_ef_san}" _ef_san)
    if(NOT _ef_san MATCHES "^(address|undefined|thread)$")
      message(FATAL_ERROR
        "EVOFORECAST_SANITIZE: unknown sanitizer '${_ef_san}' "
        "(expected address, undefined, or thread)")
    endif()
    list(APPEND _ef_san_list "${_ef_san}")
  endforeach()
  list(REMOVE_DUPLICATES _ef_san_list)

  if("thread" IN_LIST _ef_san_list AND "address" IN_LIST _ef_san_list)
    message(FATAL_ERROR
      "EVOFORECAST_SANITIZE: thread and address sanitizers cannot be combined; "
      "run them as separate builds (CI runs one job per pairing)")
  endif()

  # GCC leaves float-cast-overflow out of -fsanitize=undefined (Clang has it
  # in the group), so a double → integer conversion of NaN or of an
  # out-of-range value would pass a GCC UBSan build unreported. Name it
  # explicitly so both compilers check it.
  if("undefined" IN_LIST _ef_san_list)
    list(APPEND _ef_san_list float-cast-overflow)
  endif()

  list(JOIN _ef_san_list "," _ef_san_csv)
  set(EVOFORECAST_SANITIZE_ACTIVE "${_ef_san_csv}")
  message(STATUS "evoforecast: building with -fsanitize=${_ef_san_csv}")

  add_compile_options(
    -fsanitize=${_ef_san_csv}
    -fno-sanitize-recover=all
    -fno-omit-frame-pointer
    -g)
  add_link_options(-fsanitize=${_ef_san_csv})

  # UBSan's runtime alignment/vptr checks want the baseline -O levels kept
  # honest; nothing else to add. ASan/TSan need no extra flags beyond the
  # group name. Known-needed suppressions live in scripts/tsan.supp and are
  # applied via TSAN_OPTIONS at run time (none are baked in here so that a
  # local run reports everything by default).

  # Tests can scale themselves (thread counts, iteration budgets) under the
  # ~5-20x sanitizer slowdown without weakening the uninstrumented run.
  add_compile_definitions(EVOFORECAST_SANITIZED=1)
  if("thread" IN_LIST _ef_san_list)
    add_compile_definitions(EVOFORECAST_SANITIZE_THREAD=1)
  endif()
endif()
