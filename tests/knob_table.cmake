# Checks that DESIGN.md's "## Knobs" table lists exactly the environment
# variables the library reads: the quoted "UPCXX_*" names in src/.
#
#   cmake -DROOT=<repo root> -P tests/knob_table.cmake
#
# Registered with ctest as `knob_table`. Exits non-zero and names both
# differences when the table and the code disagree.
if(NOT ROOT)
  message(FATAL_ERROR "knob_table: pass -DROOT=<repo root>")
endif()

# Names the code reads.
file(GLOB_RECURSE _sources "${ROOT}/src/*.cpp" "${ROOT}/src/*.hpp"
     "${ROOT}/src/*.h")
set(_code "")
foreach(_src ${_sources})
  file(READ "${_src}" _text)
  string(REGEX MATCHALL "\"UPCXX_[A-Z0-9_]+\"" _hits "${_text}")
  foreach(_hit ${_hits})
    string(REPLACE "\"" "" _name "${_hit}")
    list(APPEND _code "${_name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES _code)

# Names the table lists: the first column of each row of the section.
file(READ "${ROOT}/DESIGN.md" _design)
string(FIND "${_design}" "\n## Knobs" _at)
if(_at EQUAL -1)
  message(FATAL_ERROR "knob_table: DESIGN.md has no '## Knobs' section")
endif()
string(SUBSTRING "${_design}" ${_at} -1 _section)
string(SUBSTRING "${_section}" 1 -1 _section)  # skip the leading newline
string(FIND "${_section}" "\n## " _end)
if(NOT _end EQUAL -1)
  string(SUBSTRING "${_section}" 0 ${_end} _section)
endif()
string(REGEX MATCHALL "\n\\| `UPCXX_[A-Z0-9_]+` \\|" _rows "${_section}")
set(_table "")
foreach(_row ${_rows})
  string(REGEX MATCH "UPCXX_[A-Z0-9_]+" _name "${_row}")
  list(APPEND _table "${_name}")
endforeach()

set(_missing ${_code})
if(_table)
  list(REMOVE_ITEM _missing ${_table})
endif()
set(_stale ${_table})
if(_code)
  list(REMOVE_ITEM _stale ${_code})
endif()
list(LENGTH _code _ncode)
list(LENGTH _table _ntable)
if(_missing OR _stale)
  message(FATAL_ERROR
          "knob_table: DESIGN.md's Knobs table disagrees with src/\n"
          "  read in src/ but not in the table: ${_missing}\n"
          "  in the table but not read in src/: ${_stale}")
endif()
if(NOT _ncode EQUAL _ntable)
  message(FATAL_ERROR "knob_table: the table lists a name twice "
                      "(${_ntable} rows, ${_ncode} names in src/)")
endif()
message(STATUS "knob_table: ${_ncode} environment variables, table agrees")
