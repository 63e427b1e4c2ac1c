// Package simd holds the batched inner-loop kernels of the three hot phases
// — expand's key-compute + scatter, the radix sort's counting and stable
// scatter passes, and the fused accumulate-on-equal-key fold — batched over
// 8-tuple groups so bounds checks amortize and the compiler sees straight-
// line ILP. The sort and expand kernels are generic over the key width K
// (uint32 or uint64): the 16-byte wide layout runs the same kernels as the
// 12-byte squeezed one, on an 8-byte key plane. The package is the single
// dispatch point for hardware-specific code:
//
//   - Default build (no tags): unsafe-batched pure Go. The loops are written
//     so each 8-wide group compiles to branchless loads/stores; GOAMD64=v3
//     lets the compiler pick BMI/AVX forms of the shift/mask arithmetic.
//   - -tags purego: every batched entry point degrades to the scalar
//     reference implementation — no unsafe, no assembly. This is the build
//     for auditability and for platforms where unsafe batching is unwanted.
//   - amd64 assembly is limited to cache-control hints (prefetch_amd64.s);
//     the structure admits AVX2/NEON bodies behind further build tags
//     without touching any caller.
//
// Every kernel has an exported ...Scalar reference twin compiled into every
// build. The scalar twins are the oracle: batched and scalar must be
// BIT-IDENTICAL (same element order, same floating-point association — the
// batched forms never reorder value additions), which
// internal/radix and internal/core pin with equivalence tests and the
// FuzzBatchedVsScalar target. Callers select per run (core's
// Options.DisableBatch) and report the choice on Stats.Kernel.
package simd

// Key is the element set of the packed-key planes: uint32 for the squeezed,
// narrow and pattern layouts, uint64 for the wide layout and COO.Dedup's
// row<<32|col keys. It matches radix.Key.
type Key interface {
	~uint32 | ~uint64
}

// Value is the element set of the value-carrying tuple layouts: float64
// (squeezed and wide), float32 and int32 (narrow). It matches radix.Numeric.
type Value interface {
	~float32 | ~float64 | ~int32
}

// Level reports the kernel level of this build, for Stats/bench output:
// "batched" (default build), "batched+goamd64v3" (compiled with GOAMD64=v3
// or higher) or "purego" (-tags purego).
func Level() string { return level }
