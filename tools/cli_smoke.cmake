# End-to-end smoke test of the waldo CLI: simulate a small sweep, train a
# model on it, then run info and predict on the model. A text file, such as
# the retired v0 descriptor form, must not load as a model.
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
