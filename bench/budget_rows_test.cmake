# Mutation check for the per-row tiered budget of `verify_metrics_json
# --budget`: the baseline passes against itself; a copy with one ROWS entry
# made 20 % slower must fail and name that row (each entry in turn); a copy
# with every tiered.*.ns_op row made 30 % faster must pass.
#
#   cmake -DGATE=<verify_metrics_json> -DBASELINE=<BENCH_tiered.json>
#         -DROWS="a;b" -DWORK=<dir> -P budget_rows_test.cmake

# Sets ${out} to the plain decimal @p value times num / den (six fraction
# digits, fixed point).
function(scale value num den out)
    if(NOT value MATCHES "^([0-9]+)(\\.([0-9]+))?$")
        message(FATAL_ERROR "not a plain decimal: ${value}")
    endif()
    set(whole ${CMAKE_MATCH_1})
    string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 frac)
    string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
    math(EXPR fixed "(${whole} * 1000000 + ${frac}) * ${num} / ${den}")
    math(EXPR whole "${fixed} / 1000000")
    math(EXPR frac "${fixed} % 1000000 + 1000000")
    string(SUBSTRING "${frac}" 1 6 frac)
    set(${out} "${whole}.${frac}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${GATE} ${BASELINE} --budget ${BASELINE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "baseline fails its own budget:\n${out}${err}")
endif()

file(READ ${BASELINE} json)
set(row_re "\"tiered\\.[a-z_]+\\.[a-z0-9]+\\.ns_op\": [0-9.]+")

foreach(row ${ROWS})
    string(REPLACE "." "\\." re ${row})
    if(NOT json MATCHES "\"${re}\": ([0-9.]+)")
        message(FATAL_ERROR "baseline has no ${row}")
    endif()
    scale(${CMAKE_MATCH_1} 6 5 slower)
    string(REGEX REPLACE "\"${re}\": [0-9.]+" "\"${row}\": ${slower}"
           doctored "${json}")
    set(path ${WORK}/budget_rows_slower.json)
    file(WRITE ${path} "${doctored}")
    execute_process(COMMAND ${GATE} ${path} --budget ${BASELINE}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "gate passed with ${row} 20% slower:\n${out}")
    endif()
    string(REGEX MATCHALL "exceeds budget" named "${err}")
    list(LENGTH named count)
    if(NOT err MATCHES "${re}: [0-9.]+ exceeds budget" OR NOT count EQUAL 1)
        message(FATAL_ERROR "gate did not name exactly ${row}:\n${err}")
    endif()
endforeach()

string(REGEX MATCHALL "${row_re}" entries "${json}")
list(LENGTH entries count)
if(count EQUAL 0)
    message(FATAL_ERROR "baseline has no tiered.*.ns_op rows")
endif()
set(doctored "${json}")
foreach(entry ${entries})
    string(REGEX MATCH "^(\"[^\"]+\"): ([0-9.]+)$" m "${entry}")
    scale(${CMAKE_MATCH_2} 7 10 faster)
    string(REPLACE "${entry}" "${CMAKE_MATCH_1}: ${faster}" doctored
           "${doctored}")
endforeach()
set(path ${WORK}/budget_rows_faster.json)
file(WRITE ${path} "${doctored}")
execute_process(COMMAND ${GATE} ${path} --budget ${BASELINE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "gate failed with all ${count} rows 30% faster:\n${out}${err}")
endif()
