// Runtime ISA dispatch for the blocked training kernels.
//
// DYNKGE_KERNEL_CLONES marks a kernel for GCC function multiversioning:
// the compiler emits a baseline x86-64 body plus an AVX2 body and picks
// one per process at load time (ifunc), so a single binary runs the wide
// version on CI runners and laptops and the baseline elsewhere.
//
// Byte-determinism across ISAs: every operation in the kernels is a
// single IEEE-754 add/mul/div/sqrt, and packed SSE/AVX arithmetic is
// IEEE-exact per lane — widening the vectors never changes a result bit.
// The one ISA feature that would change results is fused multiply-add
// (one rounding instead of two), so the clone list deliberately stops at
// "avx2": GCC cannot contract a*b+c unless the target has FMA, and the
// kernel translation units additionally pin -ffp-contract=off (see
// src/kge/CMakeLists.txt) so a future toolchain or clone-list change
// cannot silently reintroduce contraction.
//
// Clang and non-x86 builds compile the plain baseline body — same bytes,
// narrower vectors. So do ThreadSanitizer builds: TSan instruments the
// ifunc resolver, which the loader runs before the TSan runtime is set up,
// so a binary linking a clone would crash at start-up.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DYNKGE_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2")))
#else
#define DYNKGE_KERNEL_CLONES
#endif
