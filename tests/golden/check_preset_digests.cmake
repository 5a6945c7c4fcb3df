# Recomputes the golden preset digests: runs every preset listed in
# DIGESTS through the sweep CLI with --stable and compares the SHA-256
# of each report with the recorded one.
#
#   cmake -DSWEEP=<mango_sweep> -DDIGESTS=<preset_digests.txt>
#         -DWORK_DIR=<dir> -P check_preset_digests.cmake
file(STRINGS "${DIGESTS}" lines REGEX "^[^#]")
set(failed 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([^ ]+) +([0-9a-f]+)$")
    message(FATAL_ERROR "malformed digest line: '${line}'")
  endif()
  set(preset "${CMAKE_MATCH_1}")
  set(want "${CMAKE_MATCH_2}")
  set(report "${WORK_DIR}/golden-${preset}.json")
  execute_process(
    COMMAND "${SWEEP}" --preset ${preset} --jobs 2 --quiet --stable
            --out "${report}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${preset}: mango_sweep exited ${rc}")
    set(failed 1)
    continue()
  endif()
  file(SHA256 "${report}" got)
  if(got STREQUAL want)
    message(STATUS "${preset}: ${got} ok")
  else()
    message(SEND_ERROR "${preset}: report digest ${got}, recorded ${want}")
    set(failed 1)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "golden preset digests moved")
endif()
