# End-to-end smoke test of the waldo CLI: simulate a small sweep, check
# its CSVs against committed SHA-256 digests, train a model on it, then run
# info and predict on the model. A text file, such as the retired v0
# descriptor form, must not load as a model; a count flag that is not a
# whole number in range must be refused, not cast; and a flag the command
# does not read must be refused before anything is written.
#
#   cmake -DWALDO=path/to/waldo -DWORK_DIR=work/dir -P cli_smoke.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT WALDO OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DWALDO=... -DWORK_DIR=... -P cli_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `waldo ARGN`; fails the test unless the exit code is in `ok_codes`.
function(waldo ok_codes)
  execute_process(COMMAND "${WALDO}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc IN_LIST ok_codes)
    message(FATAL_ERROR "waldo ${ARGN} exited ${rc}\n${out}${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

set(sweep "${WORK_DIR}/ch30_usrp.csv")
set(model "${WORK_DIR}/ch30.wsm")

waldo("0" simulate --out "${WORK_DIR}" --readings 200 --channels 30)
# The sweep is a pure function of the seed, the route and the sensors:
# these digests are the same at -O0 and in Release, at any --threads.
foreach(pair IN ITEMS
    "fieldfox;dc8be6605595b22ea26e7b9a7a9f8889b62aa61785f87d4921c335ff5596f4c8"
    "rtlsdr;2b0d5770591f26686f8f56569cf19c30d8ee0e42136a18668c55bd816b41a38c"
    "usrp;a76e5a730e87ee0377a3d040c4f0ddacc04bb15170377234d3eda34de476160c")
  list(GET pair 0 sensor)
  list(GET pair 1 expected)
  file(SHA256 "${WORK_DIR}/ch30_${sensor}.csv" digest)
  if(NOT digest STREQUAL expected)
    message(FATAL_ERROR
      "ch30_${sensor}.csv: SHA-256 ${digest}, expected ${expected}")
  endif()
endforeach()
waldo("0" train --in "${sweep}" --model "${model}")
waldo("0" info --model "${model}")
if(NOT last_output MATCHES "channel: +30")
  message(FATAL_ERROR "info did not report channel 30:\n${last_output}")
endif()
# predict exits 0 for SAFE and 2 for NOT SAFE.
waldo("0;2" predict --model "${model}" --east 4000 --north 4000 --rss -88)
if(NOT last_output MATCHES "SAFE")
  message(FATAL_ERROR "predict printed no decision:\n${last_output}")
endif()

set(text_model "${WORK_DIR}/text.wsm")
file(WRITE "${text_model}"
  "waldo_model v1 channel=30 features=1 kind=svm localities=0\n")
execute_process(COMMAND "${WALDO}" info --model "${text_model}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "info accepted a text descriptor")
endif()

# Count flags must be whole numbers in range. `train` is the command used:
# its lanes are capped by its localities, so a flag that slipped through
# could not start threads without bound.
foreach(bad IN ITEMS
    "localities;-1" "features;2.5" "threads;nan" "threads;1e20")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  execute_process(COMMAND "${WALDO}" train --in "${sweep}"
    --model "${WORK_DIR}/bad.wsm" --${flag} ${value}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "invalid number for --${flag}")
    message(FATAL_ERROR
      "train --${flag} ${value} exited ${rc}, expected 1 and an invalid "
      "number error\n${out}${err}")
  endif()
endforeach()

# Flags a command does not read (a retired flag among them), a repeated
# flag, whose first value would go unread, and a channel list or switch
# that is not whole numbers: exit 1, and simulate writes nothing.
set(rejected_dir "${WORK_DIR}/rejected")
foreach(bad IN ITEMS
    "simulate;--readings;20;--fast-spectral;1;unknown flag --fast-spectral"
    "simulate;--readings;20;--bogus;1;unknown flag --bogus"
    "simulate;--readings;20;--readings;30;--readings given twice"
    "simulate;--readings;20;--channels;30x;invalid number for --channels"
    "simulate;--readings;20;--timings;nan;invalid number for --timings"
    "train;--in;${sweep};--feature;3;unknown flag --feature")
  list(POP_BACK bad expected)
  list(POP_FRONT bad command)
  list(JOIN bad " " shown)
  set(out_flag --out "${rejected_dir}")
  if(command STREQUAL "train")
    set(out_flag --model "${rejected_dir}/bad.wsm")
  endif()
  execute_process(COMMAND "${WALDO}" ${command} ${out_flag} ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${expected}")
    message(FATAL_ERROR "waldo ${command} ${shown} exited ${rc}, expected 1 "
      "and '${expected}'\n${out}${err}")
  endif()
  if(EXISTS "${rejected_dir}")
    message(FATAL_ERROR "waldo ${command} ${shown} wrote ${rejected_dir}")
  endif()
endforeach()
