# codegen_scan.cmake — fails when the disassembly of an object or archive
# holds a fused add/subtract-alternating FMA (vfmaddsub / vfmsubadd).
#
#   cmake -DOBJDUMP=objdump -DFILES="a.a;b.o" -P tests/codegen_scan.cmake
#
# GCC 12's SLP vectorizer fuses an alternating `a*b - c*d` / `a*e + c*f`
# pair of scalar statements into vfmaddsub even under fp-contract=off
# (util/lane4_tiers.inc), which rounds the pair once instead of twice and
# so moves the AVX2 tier's bits off the scalar tier's. The kernels that
# write such a pair keep it unfused; this scan holds them to it. With
# -DEXPECT_FUSED=ON it passes only if some file does hold one — the
# negative control, run on an object GCC is known to fuse.
set(found "")
foreach(file IN LISTS FILES)
  execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${file}
                  OUTPUT_VARIABLE asm RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "codegen_scan: ${OBJDUMP} -d ${file} failed (${rc})")
  endif()
  string(REGEX MATCHALL "vfm(addsub|subadd)[0-9]+p[sd]" hits "${asm}")
  if(hits)
    list(LENGTH hits n)
    list(APPEND found "${file}: ${n}")
  endif()
endforeach()
if(EXPECT_FUSED AND NOT found)
  message(FATAL_ERROR "codegen_scan: no vfmaddsub/vfmsubadd in ${FILES}")
elseif(NOT EXPECT_FUSED AND found)
  message(FATAL_ERROR "codegen_scan: fused add/subtract FMA in ${found}")
endif()
message(STATUS "codegen_scan: ${FILES}: ${found}")
