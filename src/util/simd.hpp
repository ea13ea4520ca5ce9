// Runtime-dispatched SIMD kernel selection.
//
// The analog hot loops (MVM accumulate, IR-drop fused accumulate, the
// per-column noise/ADC read-out, the DAC/quantizer pipeline, Gaussian
// scale/convert) each exist in two variants: the scalar reference (the
// code the golden-stream tests were captured against) and an AVX2+FMA
// implementation that is bit-identical by construction — every vector
// op is the IEEE-754 elementwise image of the scalar op sequence,
// including the FMA contractions GCC bakes into the scalar build
// (vfmadd/vfnmadd placement read off the disassembly and pinned by
// tests/test_simd_kernels.cpp).
//
// The ISA is resolved exactly once, on first use:
//   - NORA_FORCE_SCALAR=1 (env) forces the scalar variants — this is the
//     CI lever proving both paths produce the same bits;
//   - otherwise AVX2+FMA is used when the CPU reports it.
// Per-call dispatch is a single relaxed load of a cached enum, so the
// hot loops pay one predictable branch per MVM, not per element.
#pragma once

namespace nora::util::simd {

enum class Isa {
  kScalar,  // portable reference path
  kAvx2,    // AVX2 + FMA vector kernels
};

/// The ISA selected for this process (resolved once, then cached).
Isa active();

/// Human-readable name ("scalar" / "avx2") for logs and bench output.
const char* isa_name(Isa isa);

/// True when the AVX2 kernels are compiled in and selected.
inline bool use_avx2() { return active() == Isa::kAvx2; }

}  // namespace nora::util::simd
