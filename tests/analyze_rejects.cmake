# Breaks a copy of the committed 4-rank analyze fixtures in one way (CASE)
# and passes iff `dynkge analyze` exits 1 with a message naming the broken
# file, and for the event stream the line:
#   cmake -DCASE=name -DDYNKGE=bin -DDATA=dir -DWORK=dir -P analyze_rejects.cmake
file(READ ${DATA}/analyze_trace.json trace)
file(READ ${DATA}/analyze_events.jsonl events)
set(line "")  # the line the message must name; "" = the trace is broken
if(CASE STREQUAL "unstamped_trace")
  string(REPLACE ",\"schema_version\":1}" "}" trace "${trace}")
elseif(CASE STREQUAL "unstamped_events")
  string(REPLACE "{\"schema_version\":1," "{" events "${events}")
  set(line 1)
elseif(CASE STREQUAL "duplicate_event")  # line 1 again, no recovery line
  string(REGEX MATCH "^[^\n]*\n" first "${events}")
  string(APPEND events "${first}")
  set(line 17)
elseif(CASE STREQUAL "missing_rank")  # epoch 3 loses rank 0 (last line)
  string(REGEX REPLACE "[^\n]*\n$" "" events "${events}")
  set(line 15)  # epoch 3's lowest rank left
elseif(CASE STREQUAL "epoch_gap")  # epochs 0, 2, 3
  string(REGEX REPLACE "[^\n]*\"epoch\":1,[^\n]*\n" "" events "${events}")
  set(line 6)  # epoch 2, rank 0
elseif(CASE STREQUAL "keep_rate_out_of_range")
  string(REGEX REPLACE "\"keep_rate\":[0-9.e-]+" "\"keep_rate\":7"
         events "${events}")
  set(line 1)
elseif(CASE STREQUAL "probe_on_allreduce")  # line 1: epoch 0, rank 1
  string(REGEX REPLACE "^([^\n]*\"transport\":\"allreduce\",\"probe\":)false"
         "\\1true" events "${events}")
  set(line 1)
elseif(CASE STREQUAL "overlapping_spans")  # straddles rank 0's epoch 0 start
  string(REPLACE "\"traceEvents\":[" "\"traceEvents\":[{\"name\":\"overlap\",\
\"cat\":\"dynkge\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":500,\"dur\":1000},"
         trace "${trace}")
elseif(CASE STREQUAL "unlabelled_rank_track")
  string(REPLACE "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\
\"args\":{\"name\":\"rank 3\"}}," "" trace "${trace}")
elseif(CASE STREQUAL "mistyped_rank")
  string(REPLACE "\"rank\":1," "\"rank\":\"x\"," events "${events}")
  set(line 1)
elseif(CASE STREQUAL "mistyped_comm_mode")
  string(REPLACE "\"comm_mode\":\"dynamic\"" "\"comm_mode\":3"
         events "${events}")
  set(line 1)
elseif(CASE STREQUAL "out_of_range_epoch")
  string(REPLACE "\"epoch\":0," "\"epoch\":1e300," events "${events}")
  set(line 1)
elseif(CASE STREQUAL "deep_nesting")
  string(REPEAT "[" 1000000 trace)
else()
  message(FATAL_ERROR "unknown CASE ${CASE}")
endif()

set(trace_path ${WORK}/${CASE}_trace.json)
set(events_path ${WORK}/${CASE}_events.jsonl)
file(WRITE ${trace_path} "${trace}")
file(WRITE ${events_path} "${events}")
execute_process(COMMAND ${DYNKGE} analyze --trace ${trace_path}
                        --events ${events_path}
                RESULT_VARIABLE code OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(line STREQUAL "")
  set(expected "${trace_path}: ")
else()
  set(expected "${events_path}:${line}: ")
endif()
string(FIND "${output}" "${expected}" at)
if(NOT code EQUAL 1 OR at EQUAL -1)
  message(FATAL_ERROR "exit ${code} (expected 1); output (expected to name "
                      "'${expected}'):\n${output}")
endif()
