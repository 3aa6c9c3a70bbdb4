# Disassembles a library and fails on any fused multiply-add instruction:
#   cmake -DOBJDUMP=objdump -DLIBRARY=libdynkge_kge.a -DLISTING=out.txt \
#         -P no_fma.cmake
# A fused multiply-add rounds once where a multiply and an add round
# twice, so it is the one instruction that would make the kernels' bytes
# depend on the ISA clone a CPU runs (src/kge/kernel_dispatch.hpp).
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIBRARY}
                RESULT_VARIABLE code OUTPUT_FILE ${LISTING}
                ERROR_VARIABLE errors)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} exited ${code}:\n${errors}")
endif()
file(STRINGS ${LISTING} kernels REGEX "block_kernels\\.cpp\\.o:")
if(NOT kernels)
  message(FATAL_ERROR "${LIBRARY} holds no block_kernels.cpp object")
endif()
file(STRINGS ${LISTING} fused REGEX "[ \t]vfn?m(add|sub)")
if(fused)
  list(LENGTH fused count)
  list(SUBLIST fused 0 10 first)
  list(JOIN first "\n" shown)
  message(FATAL_ERROR "${LIBRARY}: ${count} fused multiply-add "
                      "instructions, first:\n${shown}")
endif()
