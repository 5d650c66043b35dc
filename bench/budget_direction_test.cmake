# Mutation check for `verify_metrics_json --budget`: the higher-is-better
# gauges must fail the gate when they shrink. The baseline passes against
# itself; a copy with every gauge in GAUGES set to 0 must fail, and the
# gate must name each of them.
#
#   cmake -DGATE=<verify_metrics_json> -DBASELINE=<BENCH_*.json>
#         -DGAUGES="a;b" -DWORK=<dir> -P budget_direction_test.cmake

execute_process(COMMAND ${GATE} ${BASELINE} --budget ${BASELINE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "baseline fails its own budget:\n${out}${err}")
endif()

file(READ ${BASELINE} json)
foreach(gauge ${GAUGES})
    string(REPLACE "." "\\." re ${gauge})
    string(REGEX REPLACE "\"${re}\": [0-9.e+-]+" "\"${gauge}\": 0"
           json "${json}")
endforeach()
# Named after the baseline: ctest may run two of these checks at once.
get_filename_component(name ${BASELINE} NAME_WE)
set(doctored ${WORK}/${name}_direction_doctored.json)
file(WRITE ${doctored} "${json}")

execute_process(COMMAND ${GATE} ${doctored} --budget ${BASELINE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "gate passed with ${GAUGES} at 0:\n${out}${err}")
endif()
foreach(gauge ${GAUGES})
    string(REPLACE "." "\\." re ${gauge})
    if(NOT err MATCHES "${re}: 0\\.0000 below budget")
        message(FATAL_ERROR "gate failed without naming ${gauge}:\n${err}")
    endif()
endforeach()
