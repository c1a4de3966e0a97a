/**
 * @file
 * Per-ISA multiversioning for the hot numeric kernels.
 *
 * TWIG_KERNEL_CLONES compiles a function once per x86-64 ISA level
 * (GCC target_clones) and lets the loader pick the AVX-512 or
 * AVX2/FMA clone at run time, so the binary stays portable (SSE2
 * baseline). TWIG_HAVE_KERNEL_CLONES is 1 exactly where the macro
 * expands to the attribute; kernels whose fast path needs x86 state
 * (the Adam kernel's MXCSR handling) compile that path only then and
 * fall back to their portable scalar loop otherwise.
 *
 * ThreadSanitizer instruments the ifunc resolver target_clones emits,
 * and resolvers run during relocation -- before the TSan runtime's
 * thread state exists -- so any TSan build that links a cloned kernel
 * would crash before main. Under TSan (and on non-GCC or non-x86
 * builds) the macro is empty and the default-ISA code is used.
 *
 * The GEMM kernel (nn/matrix.cc) needs a different tile type per ISA
 * level, so it writes its versions out as target-attribute function
 * multiversions instead; they use the same loader dispatch and exist
 * exactly where TWIG_HAVE_KERNEL_CLONES is 1.
 */

#ifndef TWIG_COMMON_KERNEL_CLONES_HH
#define TWIG_COMMON_KERNEL_CLONES_HH

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TWIG_HAVE_KERNEL_CLONES 1
#define TWIG_KERNEL_CLONES                                                  \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",        \
                                 "default")))
#else
#define TWIG_HAVE_KERNEL_CLONES 0
#define TWIG_KERNEL_CLONES
#endif

#endif // TWIG_COMMON_KERNEL_CLONES_HH
