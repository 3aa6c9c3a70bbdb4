// Runtime ISA dispatch for the blocked training kernels.
//
// DYNKGE_KERNEL_CLONES marks a kernel for GCC function multiversioning:
// the compiler emits a baseline x86-64 body plus an AVX2 and an AVX-512F
// body and picks one per process at load time (ifunc), so a single binary
// runs the widest version the CPU has and the baseline elsewhere.
//
// DYNKGE_KERNEL_BODIES(define) is the same list for a kernel whose bodies
// differ by more than the compiler's vectorization: the entity scan holds
// values in GCC vector types (a vector wider than the body's registers
// lives in memory, so the scan is a template on the doubles per vector),
// and the blocked Adam's AVX-512F body has a lane of its own.
// define(attribute, width) is expanded once per body with the body's
// target attribute and its doubles per register: 2 for the baseline
// (SSE2), 4 for AVX2, 8 for AVX-512F. GCC dispatches among the versions
// as it does among clones. DYNKGE_KERNEL_HAS_AVX512F is defined when the
// list has the AVX-512F body, so code written only for that body (with
// AVX-512F intrinsics) is compiled only then.
//
// Byte-determinism across ISAs: every operation in the kernels is a
// single IEEE-754 add/mul/div/sqrt, and packed SSE/AVX/AVX-512 arithmetic
// is IEEE-exact per lane — widening the vectors never changes a result
// bit. The one exception is the AVX-512F Adam lane (adam_block.cpp): it
// computes from reciprocal and square-root estimates and keeps a result
// only where a rounding test proves it is the exact step's float, and
// takes every other element through the exact step (DESIGN.md §10).
// The one ISA feature that would change results is fused multiply-add
// (one rounding instead of two), and the "avx512f" clone has it:
// AVX-512F includes the EVEX-encoded FMA instructions, and GCC contracts
// a*b+c into vfmadd in that clone under -ffp-contract=fast (GCC's default
// for GNU C++) even though it does not define __FMA__ there. What keeps
// them out is -ffp-contract=off on the kernel translation units (see
// src/kge/CMakeLists.txt) and the kernels_have_no_fma test, which
// disassembles the kernel library and fails on any fused multiply-add, so
// dropping the flag or changing the clone list cannot silently
// reintroduce contraction.
//
// Clang and non-x86 builds compile the plain baseline body — same bytes,
// narrower vectors. So do ThreadSanitizer builds: TSan instruments the
// ifunc resolver, which the loader runs before the TSan runtime is set up,
// so a binary linking a clone would crash at start-up.
//
// One body only: a translation unit compiled with DYNKGE_KERNEL_BODY_AVX2
// or DYNKGE_KERNEL_BODY_BASELINE defined builds that body alone, with no
// dispatch, so a test binary linking those kernels checks that body on
// any host that can run it (tests/CMakeLists.txt).
#pragma once

#if defined(DYNKGE_KERNEL_BODY_AVX2)
#define DYNKGE_KERNEL_CLONES __attribute__((target("avx2")))
#define DYNKGE_KERNEL_BODIES(define) define(__attribute__((target("avx2"))), 4)
#elif !defined(DYNKGE_KERNEL_BODY_BASELINE) && defined(__x86_64__) && \
    defined(__GNUC__) && !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define DYNKGE_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#define DYNKGE_KERNEL_BODIES(define)              \
  define(__attribute__((target("default"))), 2)   \
  define(__attribute__((target("avx2"))), 4)      \
  define(__attribute__((target("avx512f"))), 8)
#define DYNKGE_KERNEL_HAS_AVX512F 1
#else
#define DYNKGE_KERNEL_CLONES
#define DYNKGE_KERNEL_BODIES(define) define(, 2)
#endif
