# Runs a program and compares the SHA-256 of its standard output with a
# committed digest, so a change that must not move an exhibit's printed
# numbers proves that it did not.
#
#   cmake -DPROGRAM=path/to/program -DEXPECTED=<sha256> -P stdout_digest.cmake
#
# A change that means to alter the output regenerates the digest (run the
# program, `sha256sum` its stdout) and says why.
cmake_minimum_required(VERSION 3.16)

if(NOT PROGRAM OR NOT EXPECTED)
  message(FATAL_ERROR
    "usage: cmake -DPROGRAM=... -DEXPECTED=<sha256> -P stdout_digest.cmake")
endif()

execute_process(COMMAND "${PROGRAM}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited ${rc}\n${out}${err}")
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL EXPECTED)
  message(FATAL_ERROR
    "${PROGRAM}: stdout SHA-256 ${digest}, expected ${EXPECTED}\n${out}")
endif()
