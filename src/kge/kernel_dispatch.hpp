// Runtime ISA dispatch for the blocked training kernels.
//
// DYNKGE_KERNEL_CLONES marks a kernel for GCC function multiversioning:
// the compiler emits a baseline x86-64 body plus an AVX2 and an AVX-512F
// body and picks one per process at load time (ifunc), so a single binary
// runs the widest version the CPU has and the baseline elsewhere.
//
// Byte-determinism across ISAs: every operation in the kernels is a
// single IEEE-754 add/mul/div/sqrt, and packed SSE/AVX/AVX-512 arithmetic
// is IEEE-exact per lane — widening the vectors never changes a result
// bit. The one ISA feature that would change results is fused
// multiply-add (one rounding instead of two), and the "avx512f" clone
// has it: AVX-512F includes the EVEX-encoded FMA instructions, and GCC
// contracts a*b+c into vfmadd in that clone under -ffp-contract=fast
// (GCC's default for GNU C++) even though it does not define __FMA__
// there. What keeps them out is -ffp-contract=off on the kernel
// translation units (see src/kge/CMakeLists.txt) and the
// kernels_have_no_fma test, which disassembles the kernel library and
// fails on any fused multiply-add, so dropping the flag or changing the
// clone list cannot silently reintroduce contraction.
//
// Clang and non-x86 builds compile the plain baseline body — same bytes,
// narrower vectors. So do ThreadSanitizer builds: TSan instruments the
// ifunc resolver, which the loader runs before the TSan runtime is set up,
// so a binary linking a clone would crash at start-up.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DYNKGE_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define DYNKGE_KERNEL_CLONES
#endif
